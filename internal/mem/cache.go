package mem

import "fmt"

// line is one cache line's bookkeeping. Data contents live in the backing
// Memory (the model is timing + coherence, not a second copy of the bytes).
type line struct {
	tag     uint64
	state   MESIState
	readyAt int64  // fill completion cycle; demand hits before this wait
	lastUse uint64 // LRU tick
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Assoc      int
	HitLatency int64 // cycles to return data on a hit at this level
}

// Validate checks geometry invariants.
func (c CacheConfig) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("mem: %s associativity %d", c.Name, c.Assoc)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("mem: %s size %d not divisible by assoc*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// cache is a set-associative cache with LRU replacement.
type cache struct {
	cfg       CacheConfig
	lineShift uint
	setMask   uint64
	sets      []line // sets[i*assoc : (i+1)*assoc]
	assoc     int
	tick      uint64

	// filled lists the sets insert has filled since the cache was built or
	// last reset. Every other line mutation (LRU touch, invalidate,
	// downgrade) lands on a valid line and therefore in a filled set, so
	// reset restores the just-built state by clearing only these sets.
	filled []uint32
}

func newCache(cfg CacheConfig) *cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	c := &cache{
		cfg:   cfg,
		assoc: cfg.Assoc,
		sets:  make([]line, nsets*cfg.Assoc),
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	c.setMask = uint64(nsets - 1)
	return c
}

func (c *cache) lineAddr(addr uint64) uint64 { return addr >> c.lineShift }

func (c *cache) set(lineAddr uint64) []line {
	i := lineAddr & c.setMask
	return c.sets[i*uint64(c.assoc) : (i+1)*uint64(c.assoc)]
}

// lookup returns the line holding addr, or nil.
func (c *cache) lookup(addr uint64) *line {
	la := c.lineAddr(addr)
	set := c.set(la)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == la {
			c.tick++
			set[i].lastUse = c.tick
			return &set[i]
		}
	}
	return nil
}

// peek is lookup without touching LRU state (used by snoops).
func (c *cache) peek(addr uint64) *line {
	la := c.lineAddr(addr)
	set := c.set(la)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == la {
			return &set[i]
		}
	}
	return nil
}

// insert installs addr with the given state, evicting the LRU victim if the
// set is full. It returns the victim (valid only if evicted=true) so the
// caller can write back Modified victims and enforce inclusion.
func (c *cache) insert(addr uint64, state MESIState, readyAt int64) (victim line, evicted bool) {
	la := c.lineAddr(addr)
	set := c.set(la)
	c.tick++
	// Reuse an existing entry for the same tag (re-fill after downgrade).
	for i := range set {
		if set[i].state != Invalid && set[i].tag == la {
			set[i].state = state
			set[i].readyAt = readyAt
			set[i].lastUse = c.tick
			return line{}, false
		}
	}
	// A set's first fill lands in way 0 and stamps it with a nonzero LRU
	// tick that only reset clears, so a zero stamp marks an unlisted set.
	if set[0].lastUse == 0 {
		c.filled = append(c.filled, uint32(la&c.setMask))
	}
	vi, lru := -1, ^uint64(0)
	for i := range set {
		if set[i].state == Invalid {
			vi = i
			break
		}
		if set[i].lastUse < lru {
			lru = set[i].lastUse
			vi = i
		}
	}
	v := set[vi]
	evicted = v.state != Invalid
	set[vi] = line{tag: la, state: state, readyAt: readyAt, lastUse: c.tick}
	return v, evicted
}

// reset returns the cache to the state newCache builds: every line
// invalid and zeroed, the LRU tick at zero. It costs the number of sets
// filled since the last reset, not the size of the cache.
func (c *cache) reset() {
	for _, si := range c.filled {
		clear(c.sets[int(si)*c.assoc : int(si+1)*c.assoc])
	}
	c.filled = c.filled[:0]
	c.tick = 0
}

// invalidate drops addr and reports whether it was present and whether it
// held Modified data.
func (c *cache) invalidate(addr uint64) (found, wasM bool) {
	if l := c.peek(addr); l != nil {
		wasM = l.state == Modified
		l.state = Invalid
		return true, wasM
	}
	return false, false
}

// downgrade moves addr to Shared (snoop hit on a read) and reports its
// previous state.
func (c *cache) downgrade(addr uint64) (found bool, was MESIState) {
	if l := c.peek(addr); l != nil {
		was = l.state
		l.state = Shared
		return true, was
	}
	return false, Invalid
}

// victimAddr reconstructs the base address of an evicted line.
func (c *cache) victimAddr(v line) uint64 { return v.tag << c.lineShift }
