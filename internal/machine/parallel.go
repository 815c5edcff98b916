// Parallel window engine: shards per-CPU execution across host worker
// goroutines while producing simulations byte-identical to the serial
// causal engine.
//
// The key obstacle to parallelizing RunAll is that nothing in the timing
// domain is CPU-private: every miss, upgrade and writeback serializes
// through the interconnect's busy state in engine order, snoops mutate
// other CPUs' cache hierarchies, and PMU overflow delivers samples that
// charge cycles back to the clock that schedules the causal engine. Any
// scheme that lets two CPUs advance that state concurrently either
// diverges from the serial order (breaking the byte-identical contract)
// or reintroduces a global lock.
//
// What IS CPU-private is functional execution: register values, branch
// directions and store data depend only on a CPU's own registers and the
// values its loads observe — never on latencies. So the engine splits
// each window of execution into two phases:
//
//   - Record (parallel): every runnable CPU's shadow — a private CPU
//     struct with a copy of the architectural registers and its own
//     decode cache — executes up to `window` issue groups functionally.
//     Loads read committed memory overlaid with the CPU's own staged
//     stores; stores stage privately; nothing touches the coherence
//     domain, the PMU, or another CPU. Each memory operation and taken
//     branch is appended to a per-CPU log along with the values moved.
//
//   - Replay (serial): the causal engine runs unchanged — smallest
//     (cycle, id) first, timers fired at their exact cycles, instruction
//     budget and interrupt polls at their exact points — except that
//     instead of decoding and executing instructions it consumes logged
//     groups: performing the real Domain accesses (true latencies, MESI
//     transitions, bus contention, event deltas), feeding the PMU in
//     program order with the CPU's PC positioned as the serial engine
//     would have it (PMU overflow synchronously samples PC and charges
//     cycles), committing stores to memory, and advancing the real
//     cycle clock exactly as CPU.access does.
//
// A consumed group is correct iff the values its loads observed at record
// time equal what the serial engine would read at the group's commit
// point. A logged load can only be wrong if another CPU committed a store
// to the same word between the load's recording phase and its commit —
// detected with a store-conflict map (word -> last writer + commit
// sequence) checked before any of the group's effects are applied. On a
// conflict — or a mid-replay binary patch, which invalidates the decoded
// logs — the window aborts: architectural registers are reconstructed at
// each CPU's exact commit point (by functionally re-executing its
// consumed prefix against the logged load values), logs are discarded,
// and the span re-runs serially. Fork-join workloads synchronize on the
// host side, so aborts only occur on genuine simulated data races.
package machine

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/hpm"
	"repro/internal/mem"
)

// wxMode selects what a diverted CPU does with its memory operations.
type wxMode uint8

const (
	// wxRecord: shadow execution. Loads read committed memory overlaid
	// with the CPU's own staged stores; every memory operation and taken
	// branch is appended to the window log.
	wxRecord wxMode = iota
	// wxRebuild: functional re-execution of a log's consumed prefix.
	// Loads pop their recorded values; stores, prefetches and branches
	// pop for cursor alignment and do nothing — reconstructing register
	// state at a commit point without touching memory or the PMU.
	wxRebuild
)

type opKind uint8

const (
	opLoadInt opKind = iota
	opLoadBias
	opLoadFP // load kinds must stay first: validation tests kind <= opLoadFP
	opStore
	opLfetchShrd
	opLfetchExcl
	opLfetchSkip // out-of-range lfetch: retires in the PMU, no access
	opBranch     // taken branch; addr holds the target
)

// logOp is one recorded memory operation or taken branch.
type logOp struct {
	kind opKind
	pc   int32
	addr uint64
	val  uint64 // value loaded or stored (raw bits); unused for others
}

// logGroup is one recorded issue group.
type logGroup struct {
	endPC   int32
	retired int32
	nOps    int32
	halted  bool
	horizon int64 // commit sequence at this group's recording phase start
}

// errWindowStop aborts shadow recording at an operation the window engine
// cannot stage (an unaligned or out-of-range data access) or that would
// fault; the spot is re-executed — faulting identically if it must — on
// the serial engine.
var errWindowStop = errors.New("window recording stopped")

// windowCtx is one CPU's window state: its shadow CPU, staged stores, and
// recorded log with the replay cursors into it.
type windowCtx struct {
	mode wxMode
	m    *Machine
	cpu  *CPU // shadow (record mode) — real CPUs never get a windowCtx

	staged map[uint64]uint64 // own stores not yet committed by replay
	ops    []logOp
	groups []logGroup

	gCursor int // groups consumed (committed) by replay
	oCursor int // ops consumed by replay
	groupOp int // first op index of the group currently recording
	rxCur   int // rebuild pop cursor

	originPC int // shadow PC when the log began (rebuild start point)
	horizon  int64
	stopped  bool // recording hit an unwindowable op or a fault
	dirty    bool // shadow is stale; resync from the real CPU first
	// stageStale: another CPU overwrote a word this CPU had written, so
	// the staged overlay may no longer reflect what future loads should
	// observe. Recording pauses until the log drains (which clears the
	// staged map) rather than risk recording against the stale overlay.
	stageStale bool
}

func (w *windowCtx) pending() int { return len(w.groups) - w.gCursor }

func (w *windowCtx) load(addr uint64, pc int, kind mem.AccessKind) (uint64, error) {
	if w.mode == wxRebuild {
		if w.rxCur >= len(w.ops) {
			return 0, errWindowStop
		}
		op := &w.ops[w.rxCur]
		w.rxCur++
		return op.val, nil
	}
	if addr&7 != 0 || !w.m.memory.InRange(addr) {
		// Unaligned accesses can straddle staging granules and bad
		// addresses fault; both re-execute serially.
		return 0, errWindowStop
	}
	v, ok := w.staged[addr]
	if !ok {
		v = w.m.memory.ReadU64(addr)
	}
	k := opLoadInt
	switch kind {
	case mem.LoadBias:
		k = opLoadBias
	case mem.LoadFP:
		k = opLoadFP
	}
	w.ops = append(w.ops, logOp{kind: k, pc: int32(pc), addr: addr, val: v})
	return v, nil
}

func (w *windowCtx) store(addr uint64, pc int, val uint64) error {
	if w.mode == wxRebuild {
		w.rxCur++
		return nil
	}
	if addr&7 != 0 || !w.m.memory.InRange(addr) {
		return errWindowStop
	}
	w.staged[addr] = val
	w.ops = append(w.ops, logOp{kind: opStore, pc: int32(pc), addr: addr, val: val})
	return nil
}

func (w *windowCtx) lfetch(addr uint64, pc int, excl, inRange bool) {
	if w.mode == wxRebuild {
		w.rxCur++
		return
	}
	k := opLfetchSkip
	if inRange {
		k = opLfetchShrd
		if excl {
			k = opLfetchExcl
		}
	}
	w.ops = append(w.ops, logOp{kind: k, pc: int32(pc), addr: addr})
}

func (w *windowCtx) branch(pc, target int) {
	if w.mode == wxRebuild {
		w.rxCur++
		return
	}
	w.ops = append(w.ops, logOp{kind: opBranch, pc: int32(pc), addr: uint64(target)})
}

func (w *windowCtx) endGroup(c *CPU, retired int64) {
	if w.mode == wxRebuild {
		return
	}
	w.groups = append(w.groups, logGroup{
		endPC:   int32(c.PC),
		retired: int32(retired),
		nOps:    int32(len(w.ops) - w.groupOp),
		halted:  c.Halted,
		horizon: w.horizon,
	})
	w.groupOp = len(w.ops)
}

// winWrite records the last committed writer of a word this window.
type winWrite struct {
	cpu int32
	seq int64
}

// defaultWindowGroups is the per-CPU recording quantum: how many issue
// groups a shadow runs ahead of the serial replay. Large enough to
// amortize the phase barrier over thousands of simulated instructions,
// small enough that a window replays in well under a millisecond of host
// time (cancellation latency) and the retained logs stay compact.
const defaultWindowGroups = 512

// maxOpsPerGroup bounds ops per issue group: at most 6 instructions
// (2 bundles x 3 slots) each logging at most one operation.
const maxOpsPerGroup = 6

// parEngine is the per-machine parallel window engine. Buffers persist
// across runs; worker goroutines live only for the duration of one
// runParallel call.
type parEngine struct {
	m       *Machine
	workers int
	window  int // issue groups per CPU per recording phase
	running bool

	scs []*windowCtx // indexed by CPU id
	rb  *CPU         // scratch CPU for rebuildRF

	winStores map[uint64]winWrite
	commitSeq int64

	work   [][]int // per-worker CPU ids for the current record phase
	start  []chan struct{}
	quit   chan struct{}
	wg     sync.WaitGroup
	exited sync.WaitGroup
}

func newParEngine(m *Machine) *parEngine {
	w := m.cfg.SimWorkers
	if w > len(m.cpus) {
		w = len(m.cpus)
	}
	p := &parEngine{
		m:         m,
		workers:   w,
		window:    defaultWindowGroups,
		winStores: make(map[uint64]winWrite, 1024),
		work:      make([][]int, w),
		start:     make([]chan struct{}, w),
	}
	for i := range p.start {
		p.start[i] = make(chan struct{}, 1)
	}
	logCap := 4 * p.window // room for a retained tail plus a fresh window
	for i := range m.cpus {
		sc := &windowCtx{
			mode:   wxRecord,
			m:      m,
			staged: make(map[uint64]uint64, 256),
			ops:    make([]logOp, 0, maxOpsPerGroup*logCap),
			groups: make([]logGroup, 0, logCap),
			dirty:  true,
		}
		sc.cpu = &CPU{ID: i, m: m, Halted: true, wx: sc}
		p.scs = append(p.scs, sc)
	}
	p.rb = &CPU{m: m, Halted: true}
	return p
}

func (m *Machine) ensurePar() *parEngine {
	if m.par == nil {
		m.par = newParEngine(m)
	}
	return m.par
}

// beginRun invalidates all window state: shadows resync from the real
// CPUs before recording, because host code (thread starts, workload
// setup) mutates machine state freely between RunAll invocations.
func (p *parEngine) beginRun() {
	for _, sc := range p.scs {
		sc.dirty = true
		sc.stopped = false
		p.resetLog(sc)
	}
	clear(p.winStores)
	p.commitSeq = 0
}

func (p *parEngine) resetLog(sc *windowCtx) {
	sc.ops = sc.ops[:0]
	sc.groups = sc.groups[:0]
	sc.gCursor, sc.oCursor, sc.groupOp, sc.rxCur = 0, 0, 0, 0
	clear(sc.staged)
	sc.stageStale = false
	sc.originPC = sc.cpu.PC
}

func (p *parEngine) startWorkers() {
	p.quit = make(chan struct{})
	p.exited.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		go p.worker(w, p.quit)
	}
}

// stopWorkers tears the pool down and waits for every goroutine to exit,
// so back-to-back RunAll calls never have two pools listening on the same
// start channels.
func (p *parEngine) stopWorkers() {
	close(p.quit)
	p.exited.Wait()
}

func (p *parEngine) worker(w int, quit <-chan struct{}) {
	defer p.exited.Done()
	for {
		select {
		case <-quit:
			return
		case <-p.start[w]:
			for _, id := range p.work[w] {
				p.recordCPU(id)
			}
			p.wg.Done()
		}
	}
}

// recordPhase tops up the window logs of every recordable CPU in
// parallel. The WaitGroup barrier orders all shadow reads of committed
// memory strictly between replay phases, so recording needs no atomics:
// workers only read machine state the replay is not mutating.
func (p *parEngine) recordPhase(active []int) {
	for w := range p.work {
		p.work[w] = p.work[w][:0]
	}
	started := 0
	for _, id := range active {
		real := p.m.cpus[id]
		sc := p.scs[id]
		if real.Halted || sc.stopped || sc.stageStale {
			continue
		}
		if sc.pending() >= p.window || len(sc.groups)+1 > cap(sc.groups) {
			continue
		}
		sc.horizon = p.commitSeq
		p.work[id%p.workers] = append(p.work[id%p.workers], id)
	}
	for w := range p.work {
		if len(p.work[w]) > 0 {
			p.wg.Add(1)
			started++
			p.start[w] <- struct{}{}
		}
	}
	if started > 0 {
		p.wg.Wait()
	}
}

// recordCPU runs one CPU's shadow forward, appending to its log. Runs on
// a worker goroutine; touches only the shadow, its log, committed memory
// (reads), and the image decode journal (reads) — all quiescent during a
// record phase.
func (p *parEngine) recordCPU(id int) {
	sc := p.scs[id]
	real := p.m.cpus[id]
	if sc.dirty {
		sc.cpu.RF = real.RF
		sc.cpu.PC = real.PC
		sc.cpu.Halted = real.Halted
		p.resetLog(sc)
		sc.stopped = false
		sc.dirty = false
	}
	for sc.pending() < p.window &&
		len(sc.groups) < cap(sc.groups) &&
		len(sc.ops)+maxOpsPerGroup <= cap(sc.ops) &&
		!sc.cpu.Halted {
		if _, err := sc.cpu.stepBundle(); err != nil {
			sc.ops = sc.ops[:sc.groupOp] // drop the aborted group's ops
			sc.stopped = true
			break
		}
	}
}

// consumeGroup validates and commits the next logged group of c: the
// serial-replay equivalent of one stepBundle call. Returns ok=false if a
// logged load conflicts with a cross-CPU store committed this window, in
// which case nothing was applied.
func (p *parEngine) consumeGroup(c *CPU, sc *windowCtx) (int64, bool) {
	g := &sc.groups[sc.gCursor]
	ops := sc.ops[sc.oCursor : sc.oCursor+int(g.nOps)]
	myID := int32(c.ID)

	// Validate every load before applying any effect: a logged value is
	// stale iff another CPU committed the word after this group's
	// recording phase began.
	for i := range ops {
		op := &ops[i]
		if op.kind > opLoadFP {
			continue
		}
		if e, ok := p.winStores[op.addr]; ok && e.cpu != myID && e.seq > g.horizon {
			return 0, false
		}
	}

	m := p.m
	startCycle := c.Cycle
	c.Cycle++ // issue cost of the group, as stepBundle charges it
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opLoadInt, opLoadBias, opLoadFP:
			// The CPU's PC must track what the serial engine would show at
			// each PMU feed: overflow synchronously captures SamplePC.
			c.PC = int(op.pc) + 1
			kind := mem.LoadInt
			if op.kind == opLoadBias {
				kind = mem.LoadBias
			} else if op.kind == opLoadFP {
				kind = mem.LoadFP
			}
			res := m.dom.Access(c.ID, op.addr, kind, c.Cycle)
			if res.Ev != (mem.EventDelta{}) {
				c.feedMemEvents(&res.Ev)
			}
			c.PMU.Add(hpm.EvLoadsRetired, 1)
			c.PMU.RecordLoad(int(op.pc), op.addr, res.Latency)
			if res.Done > c.Cycle {
				c.Cycle = res.Done
			}
		case opStore:
			c.PC = int(op.pc) + 1
			res := m.dom.Access(c.ID, op.addr, mem.Store, c.Cycle)
			if res.Ev != (mem.EventDelta{}) {
				c.feedMemEvents(&res.Ev)
			}
			c.PMU.Add(hpm.EvStoresRetired, 1)
			if res.Done > c.Cycle {
				c.Cycle = res.Done
			}
			if e, ok := p.winStores[op.addr]; ok && e.cpu != myID {
				// Cross-CPU write-write sharing on this word: any other
				// CPU still holding staged stores may now carry a stale
				// overlay for it. Pause their recording until they drain.
				p.markStagedStale(myID)
			}
			m.memory.WriteU64(op.addr, op.val)
			p.commitSeq++
			p.winStores[op.addr] = winWrite{cpu: myID, seq: p.commitSeq}
		case opLfetchShrd, opLfetchExcl:
			c.PC = int(op.pc) + 1
			kind := mem.PrefShrd
			if op.kind == opLfetchExcl {
				kind = mem.PrefExcl
			}
			res := m.dom.Access(c.ID, op.addr, kind, c.Cycle)
			if res.Ev != (mem.EventDelta{}) {
				c.feedMemEvents(&res.Ev)
			}
			c.PMU.Add(hpm.EvPrefetchesRetired, 1)
		case opLfetchSkip:
			c.PC = int(op.pc) + 1
			c.PMU.Add(hpm.EvPrefetchesRetired, 1)
		case opBranch:
			c.PC = int(op.addr)
			c.PMU.RecordBranch(int(op.pc), c.PC)
			c.PMU.Add(hpm.EvTakenBranches, 1)
		}
	}
	c.PC = int(g.endPC)
	n := int64(g.retired)
	c.InstRetired += n
	c.PMU.Add(hpm.EvInstRetired, n)
	c.PMU.Add(hpm.EvCPUCycles, c.Cycle-startCycle)
	if g.halted {
		c.Halted = true
	}
	sc.gCursor++
	sc.oCursor += int(g.nOps)
	return n, true
}

func (p *parEngine) markStagedStale(committer int32) {
	for i, sc := range p.scs {
		if int32(i) != committer && len(sc.staged) != 0 {
			sc.stageStale = true
		}
	}
}

// replayWindow consumes logged groups in exact serial order until the
// minimum-cycle runnable CPU has nothing logged (the window is over) or
// every CPU halts (done=true). Timers, the instruction budget, and the
// interrupt poll fire at exactly the points the serial engine fires them.
func (p *parEngine) replayWindow(active []int, retired *int64) (bool, error) {
	m := p.m
	for {
		best := -1
		var bc int64
		for _, id := range active {
			c := m.cpus[id]
			if c.Halted {
				continue
			}
			if best == -1 || c.Cycle < bc || (c.Cycle == bc && id < best) {
				best, bc = id, c.Cycle
			}
		}
		if best == -1 {
			return true, nil
		}
		c := m.cpus[best]
		sc := p.scs[best]
		if sc.gCursor == len(sc.groups) {
			// The next CPU in serial order has nothing logged: the window
			// is over. If it stopped recording (fault or unwindowable op)
			// the remaining logs must go too — the serial engine takes
			// over from the exact commit point of every CPU.
			if sc.stopped {
				if err := p.abortWindow(active); err != nil {
					return false, err
				}
			}
			return false, nil
		}
		if m.timerNext != 0 && m.timerNext <= c.Cycle {
			gen := m.img.Generation()
			m.fireTimers(c.Cycle)
			if m.img.Generation() != gen {
				// A timer patched the binary; the pending logs were
				// decoded from the pre-patch image and are void.
				if err := p.abortWindow(active); err != nil {
					return false, err
				}
				return false, nil
			}
		}
		n, ok := p.consumeGroup(c, sc)
		if !ok {
			// A cross-CPU store raced a logged load: genuine simulated
			// data race. Nothing of the group was applied; re-run the
			// span serially from the exact commit point.
			if err := p.abortWindow(active); err != nil {
				return false, err
			}
			return false, nil
		}
		if sc.gCursor == len(sc.groups) && !sc.stopped {
			// Drained cleanly: the shadow registers are exactly the
			// serial machine's at this point. Adopt them and restart the
			// log here.
			c.RF = sc.cpu.RF
			p.resetLog(sc)
		}
		*retired += n
		if *retired > m.cfg.MaxInstrPerRun {
			if err := p.abortWindow(active); err != nil {
				return false, err
			}
			return false, fmt.Errorf("machine: instruction budget %d exceeded (runaway loop? PC=%d on CPU %d)",
				m.cfg.MaxInstrPerRun, c.PC, best)
		}
		if m.interrupt != nil {
			if err := m.pollInterrupt(n); err != nil {
				if aerr := p.abortWindow(active); aerr != nil {
					return false, aerr
				}
				return false, fmt.Errorf("machine: run interrupted: %w", err)
			}
		}
	}
}

// abortWindow materializes every CPU's architectural registers at its
// exact commit point and discards all window state. After it returns the
// real CPUs are byte-identical to a serial machine stopped at the same
// point, so execution can continue on either engine.
func (p *parEngine) abortWindow(active []int) error {
	for _, id := range active {
		sc := p.scs[id]
		c := p.m.cpus[id]
		switch {
		case sc.gCursor == 0:
			// Nothing consumed: the real registers are already at the
			// log's origin (or there is no log at all).
		case sc.gCursor == len(sc.groups) && !sc.stopped:
			c.RF = sc.cpu.RF
		default:
			if err := p.rebuildRF(c, sc); err != nil {
				return err
			}
		}
		p.resetLog(sc)
		sc.dirty = true
		// sc.stopped is preserved: runParallel uses it to route the
		// faulting span through the serial engine.
	}
	clear(p.winStores)
	return nil
}

// rebuildRF reconstructs c's registers at its current commit point by
// functionally re-executing the consumed prefix of its log from the log's
// origin, with loads observing their recorded values. Deterministic by
// construction: identical register inputs and load values reproduce the
// identical instruction stream.
func (p *parEngine) rebuildRF(c *CPU, sc *windowCtx) error {
	rb := p.rb
	rb.ID = c.ID
	rb.RF = c.RF
	rb.PC = sc.originPC
	rb.Cycle = 0
	rb.Halted = false
	// Borrow the shadow's decode cache: it still holds the image
	// generation the log was recorded against, even if a patch landed
	// during replay.
	rb.dec, rb.decGen = sc.cpu.dec, sc.cpu.decGen
	sc.mode = wxRebuild
	sc.rxCur = 0
	rb.wx = sc
	defer func() {
		sc.mode = wxRecord
		rb.wx = nil
		rb.dec = nil
	}()
	for g := 0; g < sc.gCursor; g++ {
		if _, err := rb.stepBundle(); err != nil {
			return fmt.Errorf("machine: window rebuild diverged on CPU %d: %w", c.ID, err)
		}
	}
	if sc.rxCur != sc.oCursor || rb.PC != c.PC {
		return fmt.Errorf("machine: window rebuild inconsistent on CPU %d (PC %d want %d, ops %d want %d)",
			c.ID, rb.PC, c.PC, sc.rxCur, sc.oCursor)
	}
	c.RF = rb.RF
	return nil
}

// runParallel is RunAll's engine when cfg.SimWorkers > 1 and more than
// one CPU is active: record/replay windows while several CPUs are
// runnable, with bounded serial stretches for the spans windowing cannot
// express (single-runnable regions, faulting or unwindowable code).
func (m *Machine) runParallel(active []int, retired *int64) error {
	p := m.ensurePar()
	if p.running {
		// Re-entrant RunAll (a timer running a nested region): the serial
		// engine is always correct.
		done, err := m.runSerial(active, -1, retired)
		if err != nil {
			return err
		}
		_ = done
		m.emitRunEnd(*retired)
		return nil
	}
	p.running = true
	p.beginRun()
	p.startWorkers()
	defer func() {
		p.stopWorkers()
		p.running = false
	}()
	for {
		runnable := 0
		needSerial := false
		allEmpty := true
		for _, id := range active {
			c := m.cpus[id]
			if c.Halted {
				continue
			}
			runnable++
			sc := p.scs[id]
			if sc.pending() > 0 {
				allEmpty = false
			}
			if sc.stopped && sc.pending() == 0 {
				needSerial = true
			}
		}
		if runnable == 0 {
			m.emitRunEnd(*retired)
			return nil
		}
		if allEmpty && len(p.winStores) != 0 {
			// No pending logs means no outstanding load horizons: every
			// conflict entry is dead, and with no staged stores alive the
			// write-write sharing tracker has nothing to protect either.
			// Dropping the map here bounds it by stores-per-window instead
			// of stores-per-run.
			clear(p.winStores)
		}
		// Barrier-aware cancellation: poll at every window boundary so
		// reaction latency is bounded by one window regardless of the
		// retired-instruction cadence.
		if m.interrupt != nil {
			if err := m.interrupt(); err != nil {
				return fmt.Errorf("machine: run interrupted: %w", err)
			}
		}
		if (runnable == 1 || needSerial) && allEmpty {
			// Spans the window engine cannot cover run on the serial
			// engine in bounded stretches: single-runnable regions step
			// without parallel overhead, and stopped shadows (faults,
			// unwindowable ops) re-execute — and fault — exactly where
			// the serial engine would.
			done, err := m.runSerial(active, int64(p.window), retired)
			for _, id := range active {
				sc := p.scs[id]
				sc.dirty = true
				sc.stopped = false
			}
			if err != nil {
				return err
			}
			if done {
				m.emitRunEnd(*retired)
				return nil
			}
			continue
		}
		p.recordPhase(active)
		done, err := p.replayWindow(active, retired)
		if err != nil {
			return err
		}
		if done {
			m.emitRunEnd(*retired)
			return nil
		}
	}
}
