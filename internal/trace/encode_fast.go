package trace

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Fast JSONL encoding for the hot event kinds. json.Marshal walks the
// struct reflectively on every event, which dominates encode time at
// 100k+ events; these appenders emit the same bytes with plain code.
//
// Byte-identity with encoding/json is a hard requirement — replay
// fidelity and hmtrace diff both compare encoded captures — so the
// helpers replicate its exact float format ('f' for 1e-6 <= |x| < 1e21,
// else 'e' with the "e-0X" exponent trimmed) and bail out to the
// reflective encoder for any string that would need escaping
// (encoding/json escapes <, >, & and control characters).
// encode_fast_test.go pins the equivalence per kind and per float
// regime.

// safeString reports whether s encodes as a JSON string with no byte
// escaped or replaced: printable ASCII other than the quote, the
// backslash and encoding/json's HTML-escaped <, > and &.
func safeString(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendSafeString appends s as a JSON string if no byte needs
// escaping; ok=false tells the caller to fall back to json.Marshal.
func appendSafeString(b []byte, s string) ([]byte, bool) {
	if !safeString(s) {
		return b, false
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), true
}

// appendJSONFloat appends f exactly as encoding/json renders a float64.
// ok=false for NaN/Inf (json.Marshal errors on those; let it).
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json cleans up e-09 to e-9.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// appendHeader emits `{"k":<kind>,"seq":N,"t":T` (no trailing comma).
// The kind comes from the event's Kind method, never from h.K, so an
// event built without its K field set still encodes decodably.
func appendHeader(b []byte, kind string, h *Ev) ([]byte, bool) {
	b = append(b, `{"k":"`...)
	b = append(b, kind...)
	b = append(b, `","seq":`...)
	b = strconv.AppendInt(b, h.Seq, 10)
	b = append(b, `,"t":`...)
	return appendJSONFloat(b, h.T)
}

// appendEvent appends the JSON encoding of e, byte-identical to
// json.Marshal(e). ok=false means this kind (or one of its string
// fields) needs the reflective encoder — Meta, Retune and Stats carry
// nested structs and occur a constant number of times per capture, so
// they always take the slow path.
func appendEvent(b []byte, e Event) ([]byte, bool) {
	var ok bool
	switch ev := e.(type) {
	case *HandleDecl:
		if b, ok = appendHeader(b, ev.Kind(), &ev.Ev); !ok {
			return b, false
		}
		b = append(b, `,"block":`...)
		if b, ok = appendSafeString(b, ev.Block); !ok {
			return b, false
		}
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, ev.Bytes, 10)
		b = append(b, `,"node":`...)
		if b, ok = appendSafeString(b, ev.Node); !ok {
			return b, false
		}
		return append(b, '}'), true

	case *Send:
		if b, ok = appendHeader(b, ev.Kind(), &ev.Ev); !ok {
			return b, false
		}
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, ev.ID, 10)
		b = append(b, `,"arr":`...)
		if b, ok = appendSafeString(b, ev.Arr); !ok {
			return b, false
		}
		b = append(b, `,"idx":`...)
		b = strconv.AppendInt(b, int64(ev.Idx), 10)
		b = append(b, `,"entry":`...)
		if b, ok = appendSafeString(b, ev.Entry); !ok {
			return b, false
		}
		b = append(b, `,"pe":`...)
		b = strconv.AppendInt(b, int64(ev.PE), 10)
		b = append(b, `,"from":`...)
		b = strconv.AppendInt(b, int64(ev.From), 10)
		b = append(b, `,"prefetch":`...)
		b = appendBool(b, ev.Prefetch)
		if len(ev.Deps) > 0 {
			b = append(b, `,"deps":[`...)
			for i, d := range ev.Deps {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"block":`...)
				if b, ok = appendSafeString(b, d.Block); !ok {
					return b, false
				}
				b = append(b, `,"bytes":`...)
				b = strconv.AppendInt(b, d.Bytes, 10)
				b = append(b, `,"mode":`...)
				if b, ok = appendSafeString(b, d.Mode); !ok {
					return b, false
				}
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		return append(b, '}'), true

	case *Admit:
		if b, ok = appendHeader(b, ev.Kind(), &ev.Ev); !ok {
			return b, false
		}
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, ev.ID, 10)
		b = append(b, `,"pe":`...)
		b = strconv.AppendInt(b, int64(ev.PE), 10)
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, ev.Bytes, 10)
		b = append(b, `,"staged":`...)
		b = appendBool(b, ev.Staged)
		return append(b, '}'), true

	case *RunStart:
		if b, ok = appendHeader(b, ev.Kind(), &ev.Ev); !ok {
			return b, false
		}
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, ev.ID, 10)
		b = append(b, `,"pe":`...)
		b = strconv.AppendInt(b, int64(ev.PE), 10)
		return append(b, '}'), true

	case *RunEnd:
		if b, ok = appendHeader(b, ev.Kind(), &ev.Ev); !ok {
			return b, false
		}
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, ev.ID, 10)
		b = append(b, `,"pe":`...)
		b = strconv.AppendInt(b, int64(ev.PE), 10)
		return append(b, '}'), true

	case *Kernel:
		if b, ok = appendHeader(b, ev.Kind(), &ev.Ev); !ok {
			return b, false
		}
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, ev.ID, 10)
		b = append(b, `,"pe":`...)
		b = strconv.AppendInt(b, int64(ev.PE), 10)
		b = append(b, `,"flops":`...)
		if b, ok = appendJSONFloat(b, ev.Flops); !ok {
			return b, false
		}
		b = append(b, `,"scale":`...)
		if b, ok = appendJSONFloat(b, ev.Scale); !ok {
			return b, false
		}
		b = append(b, `,"start":`...)
		if b, ok = appendJSONFloat(b, ev.Start); !ok {
			return b, false
		}
		b = append(b, `,"dur":`...)
		if b, ok = appendJSONFloat(b, ev.Dur); !ok {
			return b, false
		}
		return append(b, '}'), true

	case *FetchStart:
		if b, ok = appendHeader(b, ev.Kind(), &ev.Ev); !ok {
			return b, false
		}
		b = append(b, `,"lane":`...)
		b = strconv.AppendInt(b, int64(ev.Lane), 10)
		b = append(b, `,"block":`...)
		if b, ok = appendSafeString(b, ev.Block); !ok {
			return b, false
		}
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, ev.Bytes, 10)
		return append(b, '}'), true

	case *FetchEnd:
		if b, ok = appendHeader(b, ev.Kind(), &ev.Ev); !ok {
			return b, false
		}
		b = append(b, `,"lane":`...)
		b = strconv.AppendInt(b, int64(ev.Lane), 10)
		b = append(b, `,"block":`...)
		if b, ok = appendSafeString(b, ev.Block); !ok {
			return b, false
		}
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, ev.Bytes, 10)
		b = append(b, `,"dur":`...)
		if b, ok = appendJSONFloat(b, ev.Dur); !ok {
			return b, false
		}
		b = append(b, `,"src":`...)
		if b, ok = appendSafeString(b, ev.Src); !ok {
			return b, false
		}
		b = append(b, `,"refetch":`...)
		b = appendBool(b, ev.Refetch)
		return append(b, '}'), true

	case *Evict:
		if b, ok = appendHeader(b, ev.Kind(), &ev.Ev); !ok {
			return b, false
		}
		b = append(b, `,"lane":`...)
		b = strconv.AppendInt(b, int64(ev.Lane), 10)
		b = append(b, `,"block":`...)
		if b, ok = appendSafeString(b, ev.Block); !ok {
			return b, false
		}
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, ev.Bytes, 10)
		b = append(b, `,"dur":`...)
		if b, ok = appendJSONFloat(b, ev.Dur); !ok {
			return b, false
		}
		b = append(b, `,"forced":`...)
		b = appendBool(b, ev.Forced)
		b = append(b, `,"policy":`...)
		if b, ok = appendSafeString(b, ev.Policy); !ok {
			return b, false
		}
		// dst carries omitempty: skipped exactly when json.Marshal
		// would skip it (two-tier captures leave it empty).
		if ev.Dst != "" {
			b = append(b, `,"dst":`...)
			if b, ok = appendSafeString(b, ev.Dst); !ok {
				return b, false
			}
		}
		return append(b, '}'), true

	case *Pressure:
		if b, ok = appendHeader(b, ev.Kind(), &ev.Ev); !ok {
			return b, false
		}
		b = append(b, `,"pe":`...)
		b = strconv.AppendInt(b, int64(ev.PE), 10)
		b = append(b, `,"task":`...)
		if b, ok = appendSafeString(b, ev.Task); !ok {
			return b, false
		}
		b = append(b, `,"need":`...)
		b = strconv.AppendInt(b, ev.Need, 10)
		b = append(b, `,"used":`...)
		b = strconv.AppendInt(b, ev.Used, 10)
		b = append(b, `,"reserved":`...)
		b = strconv.AppendInt(b, ev.Reserved, 10)
		b = append(b, `,"budget":`...)
		b = strconv.AppendInt(b, ev.Budget, 10)
		return append(b, '}'), true

	case *LaneAssign:
		if b, ok = appendHeader(b, ev.Kind(), &ev.Ev); !ok {
			return b, false
		}
		b = append(b, `,"window":`...)
		b = strconv.AppendInt(b, int64(ev.Window), 10)
		b = append(b, `,"lanes":`...)
		b = strconv.AppendInt(b, int64(ev.Lanes), 10)
		b = append(b, `,"total":`...)
		b = strconv.AppendInt(b, int64(ev.Total), 10)
		b = append(b, `,"active":`...)
		b = strconv.AppendInt(b, int64(ev.Active), 10)
		return append(b, '}'), true

	case *Adapt:
		if b, ok = appendHeader(b, ev.Kind(), &ev.Ev); !ok {
			return b, false
		}
		b = append(b, `,"window":`...)
		b = strconv.AppendInt(b, int64(ev.Window), 10)
		b = append(b, `,"action":`...)
		if b, ok = appendSafeString(b, ev.Action); !ok {
			return b, false
		}
		return append(b, '}'), true

	case *TaskDone:
		if b, ok = appendHeader(b, ev.Kind(), &ev.Ev); !ok {
			return b, false
		}
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, ev.ID, 10)
		return append(b, '}'), true
	}
	return b, false
}
