package trace

import (
	"bytes"
	"strconv"
)

// Fast JSONL decoding for the hot event kinds, the mirror of
// encode_fast.go. The reflective decoder needs two json.Unmarshal
// calls per line (a probe for the kind, then the event); at 100k+
// events that dominates every hmtrace pass.
//
// The fast path reads exactly the canonical line shape appendEvent
// writes: `{"k":…,"seq":…,"t":…` and then the kind's fields in
// declaration order, numbers through strconv (the parsers
// encoding/json itself uses). It is deliberately lax about what it
// scans; what makes it safe is the guard in fastDecoder.decode: a
// parsed event is accepted only if appendEvent re-encodes it to the
// very bytes of the input line. Such a line is json.Marshal's output
// for that event, and json.Unmarshal inverts json.Marshal for these
// structs, so the reflective decoder would have produced the same
// event. Every other line — escapes, reordered or duplicate keys,
// "deps":[], an integer -0, 1E2, leading zeros, whitespace inside the
// object, overflowing numbers, the kinds appendEvent leaves to
// json.Marshal — falls back to the reflective path with its errors
// unchanged.
// decode_oracle_test.go holds the two paths to that equivalence.

// fastDecoder carries per-Decode state: the string intern table (block,
// array, entry, mode, node, policy and action names repeat on most
// lines) and the scratch buffer for the re-encode guard.
type fastDecoder struct {
	strs    map[string]string
	scratch []byte
}

func newFastDecoder() *fastDecoder {
	return &fastDecoder{strs: make(map[string]string)}
}

// intern returns b as a string, one allocation per distinct value.
func (d *fastDecoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// decode returns the event on a canonical line of a fast-path kind,
// nil for anything the reflective decoder must handle.
func (d *fastDecoder) decode(line []byte) Event {
	c := cursor{b: line, ok: true}
	c.lit(`{"k":`)
	kind := c.rawString()
	var h Ev
	h.Seq = c.int(`,"seq":`)
	h.T = c.float(`,"t":`)
	if !c.ok {
		return nil
	}
	e := d.fields(&c, kind, h)
	c.lit(`}`)
	if e == nil || !c.ok || c.i != len(line) {
		return nil
	}
	e.header().K = e.Kind()
	b, ok := appendEvent(d.scratch[:0], e)
	d.scratch = b
	if !ok || !bytes.Equal(b, line) {
		return nil
	}
	return e
}

// fields parses the kind-specific fields after the header, in
// declaration order. A nil result means the kind is not on the fast
// path.
func (d *fastDecoder) fields(c *cursor, kind []byte, h Ev) Event {
	switch string(kind) {
	case "handle":
		return &HandleDecl{Ev: h,
			Block: d.str(c, `,"block":`),
			Bytes: c.int(`,"bytes":`),
			Node:  d.str(c, `,"node":`)}
	case "send":
		ev := &Send{Ev: h,
			ID:       c.int(`,"id":`),
			Arr:      d.str(c, `,"arr":`),
			Idx:      int(c.int(`,"idx":`)),
			Entry:    d.str(c, `,"entry":`),
			PE:       int(c.int(`,"pe":`)),
			From:     int(c.int(`,"from":`)),
			Prefetch: c.bool(`,"prefetch":`)}
		if c.peek(`,"deps":[`) {
			c.lit(`,"deps":[`)
			for c.ok {
				ev.Deps = append(ev.Deps, Dep{
					Block: d.str(c, `{"block":`),
					Bytes: c.int(`,"bytes":`),
					Mode:  d.str(c, `,"mode":`)})
				c.lit(`}`)
				if !c.peek(`,`) {
					break
				}
				c.lit(`,`)
			}
			c.lit(`]`)
		}
		return ev
	case "admit":
		return &Admit{Ev: h,
			ID:     c.int(`,"id":`),
			PE:     int(c.int(`,"pe":`)),
			Bytes:  c.int(`,"bytes":`),
			Staged: c.bool(`,"staged":`)}
	case "run-start":
		return &RunStart{Ev: h, ID: c.int(`,"id":`), PE: int(c.int(`,"pe":`))}
	case "run-end":
		return &RunEnd{Ev: h, ID: c.int(`,"id":`), PE: int(c.int(`,"pe":`))}
	case "kernel":
		return &Kernel{Ev: h,
			ID:    c.int(`,"id":`),
			PE:    int(c.int(`,"pe":`)),
			Flops: c.float(`,"flops":`),
			Scale: c.float(`,"scale":`),
			Start: c.float(`,"start":`),
			Dur:   c.float(`,"dur":`)}
	case "fetch-start":
		return &FetchStart{Ev: h,
			Lane:  int(c.int(`,"lane":`)),
			Block: d.str(c, `,"block":`),
			Bytes: c.int(`,"bytes":`)}
	case "fetch-end":
		return &FetchEnd{Ev: h,
			Lane:    int(c.int(`,"lane":`)),
			Block:   d.str(c, `,"block":`),
			Bytes:   c.int(`,"bytes":`),
			Dur:     c.float(`,"dur":`),
			Src:     d.str(c, `,"src":`),
			Refetch: c.bool(`,"refetch":`)}
	case "evict":
		ev := &Evict{Ev: h,
			Lane:   int(c.int(`,"lane":`)),
			Block:  d.str(c, `,"block":`),
			Bytes:  c.int(`,"bytes":`),
			Dur:    c.float(`,"dur":`),
			Forced: c.bool(`,"forced":`),
			Policy: d.str(c, `,"policy":`)}
		if c.peek(`,"dst":`) {
			ev.Dst = d.str(c, `,"dst":`)
		}
		return ev
	case "pressure":
		return &Pressure{Ev: h,
			PE:       int(c.int(`,"pe":`)),
			Task:     d.str(c, `,"task":`),
			Need:     c.int(`,"need":`),
			Used:     c.int(`,"used":`),
			Reserved: c.int(`,"reserved":`),
			Budget:   c.int(`,"budget":`)}
	case "lanes":
		return &LaneAssign{Ev: h,
			Window: int(c.int(`,"window":`)),
			Lanes:  int(c.int(`,"lanes":`)),
			Total:  int(c.int(`,"total":`)),
			Active: int(c.int(`,"active":`))}
	case "adapt":
		return &Adapt{Ev: h,
			Window: int(c.int(`,"window":`)),
			Action: d.str(c, `,"action":`)}
	case "done":
		return &TaskDone{Ev: h, ID: c.int(`,"id":`)}
	}
	return nil
}

// str reads key and an interned string value.
func (d *fastDecoder) str(c *cursor, key string) string {
	c.lit(key)
	b := c.rawString()
	if !c.ok {
		return ""
	}
	return d.intern(b)
}

// cursor scans one line. Every read is a no-op once ok is false, so a
// field sequence can be written straight through and checked once.
type cursor struct {
	b  []byte
	i  int
	ok bool
}

// peek reports whether the input continues with s.
func (c *cursor) peek(s string) bool {
	return c.ok && len(c.b)-c.i >= len(s) && string(c.b[c.i:c.i+len(s)]) == s
}

// lit consumes s.
func (c *cursor) lit(s string) {
	if !c.peek(s) {
		c.ok = false
		return
	}
	c.i += len(s)
}

// rawString consumes a quoted string and returns its bytes. A
// backslash fails the read: escaped strings are the reflective
// decoder's (the re-encode guard would reject them anyway).
func (c *cursor) rawString() []byte {
	c.lit(`"`)
	if !c.ok {
		return nil
	}
	start := c.i
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case '"':
			s := c.b[start:c.i]
			c.i++
			return s
		case '\\':
			c.ok = false
			return nil
		}
		c.i++
	}
	c.ok = false
	return nil
}

// number consumes key and the number token after it.
func (c *cursor) number(key string) []byte {
	c.lit(key)
	if !c.ok {
		return nil
	}
	start := c.i
	for c.i < len(c.b) {
		ch := c.b[c.i]
		if !('0' <= ch && ch <= '9' || ch == '-' || ch == '+' || ch == '.' || ch == 'e' || ch == 'E') {
			break
		}
		c.i++
	}
	if c.i == start {
		c.ok = false
	}
	return c.b[start:c.i]
}

func (c *cursor) int(key string) int64 {
	tok := c.number(key)
	if !c.ok {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		c.ok = false
	}
	return v
}

func (c *cursor) float(key string) float64 {
	tok := c.number(key)
	if !c.ok {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		c.ok = false
	}
	return v
}

func (c *cursor) bool(key string) bool {
	c.lit(key)
	switch {
	case c.peek("true"):
		c.i += 4
		return true
	case c.peek("false"):
		c.i += 5
		return false
	}
	c.ok = false
	return false
}
