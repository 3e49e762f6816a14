// Package litmus is the declarative litmus-test engine: a small JSON test
// format over the machine's Table 1 primitives, an embedded corpus of the
// weak-memory classics adapted to buffered consistency, and the
// cross-validation harness that runs each test both through the axiomatic
// enumerator (internal/bccheck) and the operational simulator
// (internal/core) under schedule jitter, asserting that every observed
// outcome is axiomatically allowed.
package litmus

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ssmp/internal/bccheck"
)

// LocSpec pins a named location to a (block, word) pair; by default each
// name gets word 0 of its own block. Colocating two names in one block
// exercises false sharing and per-word coherence.
type LocSpec struct {
	Block int `json:"block"`
	Word  int `json:"word"`
}

// Stmt is one instruction. Op is the lower-case primitive name ("read",
// "write", "read-global", "write-global", "read-update", "reset-update",
// "flush", "read-lock", "write-lock", "unlock", "barrier"). Loc names a
// location (for "barrier", a barrier; omitted for "flush"). Val is the
// value written. Reg optionally names the register a reading op fills
// (default r0, r1, ... per processor).
type Stmt struct {
	Op  string `json:"op"`
	Loc string `json:"loc,omitempty"`
	Val uint64 `json:"val,omitempty"`
	Reg string `json:"reg,omitempty"`
}

// Test is one litmus test.
type Test struct {
	Name string `json:"name"`
	Doc  string `json:"doc,omitempty"`
	// Locations optionally pins names to blocks/words.
	Locations map[string]LocSpec `json:"locations,omitempty"`
	// Init gives initial memory values by location name.
	Init map[string]uint64 `json:"init,omitempty"`
	// Procs is the per-processor instruction lists.
	Procs [][]Stmt `json:"procs"`
	// Observe lists locations whose final memory value joins the outcome.
	Observe []string `json:"observe,omitempty"`
	// MustAllow asserts outcomes the axiomatic model must admit (documents
	// the model's weakness); MustForbid asserts outcomes it must exclude
	// (documents its guarantees). Both use the canonical outcome syntax:
	// space-separated "P<p>:<reg>=<val>" and "<loc>=<val>" tokens.
	MustAllow  []string `json:"must_allow,omitempty"`
	MustForbid []string `json:"must_forbid,omitempty"`
	// Allowed, when present, pins the EXACT axiomatic allowed set (sorted
	// canonical outcome keys). Farm-generated tests carry it so replaying
	// the corpus detects any model drift — weakening (new outcomes) as
	// well as strengthening (lost outcomes).
	Allowed []string `json:"allowed,omitempty"`
	// Coverage tags the test with the §2 axiom families that constrain
	// its allowed set, computed by CoverageVector's per-axiom ablations
	// and checked against a recomputation in CI.
	Coverage []string `json:"coverage,omitempty"`
}

// Parse decodes a test, rejecting unknown fields.
func Parse(data []byte) (*Test, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var t Test
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("litmus: %w", err)
	}
	if _, err := t.compile(); err != nil {
		return nil, err
	}
	return &t, nil
}

var opByName = map[string]bccheck.Op{
	"read":         bccheck.OpRead,
	"write":        bccheck.OpWrite,
	"read-global":  bccheck.OpReadGlobal,
	"write-global": bccheck.OpWriteGlobal,
	"read-update":  bccheck.OpReadUpdate,
	"reset-update": bccheck.OpResetUpdate,
	"flush":        bccheck.OpFlush,
	"read-lock":    bccheck.OpReadLock,
	"write-lock":   bccheck.OpWriteLock,
	"unlock":       bccheck.OpUnlock,
	"barrier":      bccheck.OpBarrier,
}

// machineBlockWords is the block size litmus tests run under (the paper's
// default); explicit word indices must fit in it.
const machineBlockWords = 4

// barrierBlockBase keeps barrier addresses far above any data block.
const barrierBlockBase = 64

// compiled is a validated test lowered to the bccheck vocabulary plus the
// bookkeeping to format outcomes and drive the simulator.
type compiled struct {
	t        *Test
	prog     bccheck.Program
	opts     bccheck.Options
	locOf    map[string]bccheck.Loc // data locations
	barOf    map[string]int         // barrier name -> barrier id
	nameOf   map[bccheck.Loc]string
	regNames [][]string // per proc, per read
}

// compile resolves locations, lowers statements, and validates through
// bccheck.Validate.
func (t *Test) compile() (*compiled, error) {
	if t.Name == "" {
		return nil, fmt.Errorf("litmus: test needs a name")
	}
	if len(t.Procs) < 1 || len(t.Procs) > 8 {
		return nil, fmt.Errorf("litmus %s: need 1-8 procs, got %d", t.Name, len(t.Procs))
	}
	c := &compiled{
		t:      t,
		locOf:  map[string]bccheck.Loc{},
		barOf:  map[string]int{},
		nameOf: map[bccheck.Loc]string{},
	}

	// Collect names: barriers from barrier ops, data locations from
	// everything else plus observe/init.
	dataNames := map[string]bool{}
	barNames := map[string]bool{}
	for p, stmts := range t.Procs {
		for i, st := range stmts {
			op, ok := opByName[st.Op]
			if !ok {
				return nil, fmt.Errorf("litmus %s: P%d[%d]: unknown op %q", t.Name, p, i, st.Op)
			}
			switch op {
			case bccheck.OpFlush:
			case bccheck.OpBarrier:
				if st.Loc == "" {
					return nil, fmt.Errorf("litmus %s: P%d[%d]: barrier needs a name", t.Name, p, i)
				}
				barNames[st.Loc] = true
			default:
				if st.Loc == "" {
					return nil, fmt.Errorf("litmus %s: P%d[%d]: %s needs a loc", t.Name, p, i, st.Op)
				}
				dataNames[st.Loc] = true
			}
		}
	}
	for _, n := range t.Observe {
		dataNames[n] = true
	}
	for n := range t.Init {
		dataNames[n] = true
	}

	// Assign locations: explicit pins first, then fresh blocks.
	nextBlock := 0
	for _, spec := range t.Locations {
		if spec.Block >= nextBlock {
			nextBlock = spec.Block + 1
		}
	}
	var names []string
	for n := range dataNames {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if spec, ok := t.Locations[n]; ok {
			if spec.Word < 0 || spec.Word >= machineBlockWords {
				return nil, fmt.Errorf("litmus %s: location %s word %d outside block of %d words", t.Name, n, spec.Word, machineBlockWords)
			}
			if spec.Block < 0 || spec.Block >= barrierBlockBase {
				return nil, fmt.Errorf("litmus %s: location %s block %d outside [0,%d)", t.Name, n, spec.Block, barrierBlockBase)
			}
			c.locOf[n] = bccheck.Loc{Block: spec.Block, Word: spec.Word}
		} else {
			c.locOf[n] = bccheck.Loc{Block: nextBlock}
			nextBlock++
		}
		c.nameOf[c.locOf[n]] = n
	}
	if nextBlock > 16 {
		return nil, fmt.Errorf("litmus %s: %d blocks (max 16)", t.Name, nextBlock)
	}
	for n, l := range c.locOf {
		for n2, l2 := range c.locOf {
			if n < n2 && l == l2 {
				return nil, fmt.Errorf("litmus %s: locations %s and %s coincide at %+v", t.Name, n, n2, l)
			}
		}
	}
	var bars []string
	for n := range barNames {
		bars = append(bars, n)
	}
	sort.Strings(bars)
	for i, n := range bars {
		c.barOf[n] = i
	}

	// Lower.
	c.regNames = make([][]string, len(t.Procs))
	for p, stmts := range t.Procs {
		var instrs []bccheck.Instr
		for i, st := range stmts {
			op := opByName[st.Op]
			in := bccheck.Instr{Op: op, Val: st.Val}
			switch op {
			case bccheck.OpFlush:
			case bccheck.OpBarrier:
				in.Loc = bccheck.Loc{Block: c.barOf[st.Loc]}
			default:
				in.Loc = c.locOf[st.Loc]
			}
			if op.Reads() {
				reg := st.Reg
				if reg == "" {
					reg = fmt.Sprintf("r%d", len(c.regNames[p]))
				}
				for _, prev := range c.regNames[p] {
					if prev == reg {
						return nil, fmt.Errorf("litmus %s: P%d reuses register %s", t.Name, p, reg)
					}
				}
				c.regNames[p] = append(c.regNames[p], reg)
			} else if st.Reg != "" {
				return nil, fmt.Errorf("litmus %s: P%d[%d]: %s does not fill a register", t.Name, p, i, st.Op)
			}
			instrs = append(instrs, in)
		}
		c.prog = append(c.prog, instrs)
	}

	c.opts = bccheck.Options{
		LocName: func(l bccheck.Loc) string {
			if n, ok := c.nameOf[l]; ok {
				return n
			}
			return fmt.Sprintf("b%dw%d", l.Block, l.Word)
		},
	}
	for _, n := range t.Observe {
		c.opts.Observe = append(c.opts.Observe, c.locOf[n])
	}
	if len(t.Init) > 0 {
		c.opts.Init = map[bccheck.Loc]uint64{}
		for n, v := range t.Init {
			c.opts.Init[c.locOf[n]] = v
		}
	}
	if err := bccheck.Validate(c.prog, c.opts); err != nil {
		return nil, fmt.Errorf("litmus %s: %w", t.Name, err)
	}

	// Canonicalize the assertions early so malformed ones fail at parse.
	for i, s := range t.MustAllow {
		cs, err := c.canon(s)
		if err != nil {
			return nil, fmt.Errorf("litmus %s: must_allow[%d]: %w", t.Name, i, err)
		}
		t.MustAllow[i] = cs
	}
	for i, s := range t.MustForbid {
		cs, err := c.canon(s)
		if err != nil {
			return nil, fmt.Errorf("litmus %s: must_forbid[%d]: %w", t.Name, i, err)
		}
		t.MustForbid[i] = cs
	}
	// An outcome asserted both ways can never pass; reject it at parse.
	for _, a := range t.MustAllow {
		for _, f := range t.MustForbid {
			if a == f {
				return nil, fmt.Errorf("litmus %s: outcome %q is in both must_allow and must_forbid", t.Name, a)
			}
		}
	}
	return c, nil
}

// format renders a bccheck outcome in the test's canonical syntax:
// register tokens in processor and program order, then observed memory in
// observe order.
func (c *compiled) format(o bccheck.Outcome) string {
	var tok []string
	for p, regs := range o.Regs {
		for i, v := range regs {
			tok = append(tok, fmt.Sprintf("P%d:%s=%d", p, c.regNames[p][i], v))
		}
	}
	for i, v := range o.Mem {
		tok = append(tok, fmt.Sprintf("%s=%d", c.t.Observe[i], v))
	}
	return strings.Join(tok, " ")
}

// canon parses a user-written outcome string (tokens in any order) and
// re-renders it canonically, requiring exactly the tokens the test's
// structure defines.
func (c *compiled) canon(s string) (string, error) {
	vals := map[string]uint64{}
	for _, tok := range strings.Fields(s) {
		eq := strings.IndexByte(tok, '=')
		if eq < 1 {
			return "", fmt.Errorf("bad token %q", tok)
		}
		var v uint64
		if _, err := fmt.Sscanf(tok[eq+1:], "%d", &v); err != nil {
			return "", fmt.Errorf("bad value in token %q", tok)
		}
		if _, dup := vals[tok[:eq]]; dup {
			return "", fmt.Errorf("duplicate token %q", tok[:eq])
		}
		vals[tok[:eq]] = v
	}
	var tok []string
	want := 0
	for p, regs := range c.regNames {
		for _, reg := range regs {
			key := fmt.Sprintf("P%d:%s", p, reg)
			v, ok := vals[key]
			if !ok {
				return "", fmt.Errorf("missing %s", key)
			}
			tok = append(tok, fmt.Sprintf("%s=%d", key, v))
			want++
		}
	}
	for _, n := range c.t.Observe {
		v, ok := vals[n]
		if !ok {
			return "", fmt.Errorf("missing %s", n)
		}
		tok = append(tok, fmt.Sprintf("%s=%d", n, v))
		want++
	}
	if len(vals) != want {
		return "", fmt.Errorf("outcome %q names %d registers/locations, test has %d", s, len(vals), want)
	}
	return strings.Join(tok, " "), nil
}

// Program lowers the test to the checker's input: the program, and the
// options (observed locations, initial values, location names) every
// enumeration of the test starts from.
func (t *Test) Program() (bccheck.Program, bccheck.Options, error) {
	c, err := t.compile()
	if err != nil {
		return nil, bccheck.Options{}, err
	}
	return c.prog, c.opts, nil
}

// Enumerate runs the axiomatic enumerator, returning the allowed outcomes
// in canonical syntax together with their witnesses.
func (t *Test) Enumerate() (allowed map[string][]string, states int, err error) {
	c, err := t.compile()
	if err != nil {
		return nil, 0, err
	}
	opts := c.opts
	opts.Witnesses = true
	res, err := bccheck.Enumerate(c.prog, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("litmus %s: %w", t.Name, err)
	}
	allowed = map[string][]string{}
	for _, o := range res.Outcomes {
		allowed[c.format(o)] = o.Witness
	}
	return allowed, res.States, nil
}
