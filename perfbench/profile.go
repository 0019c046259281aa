package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run takes a CPU profile of its own process and folds the
// samples onto the repository's modules. No public call brackets the
// simulator's process handoff, and memsim is reached only through core,
// so the profile is the only outside view of those two layers.

// stack is one profile sample: function names leaf first, and its
// sample count.
type stack struct {
	Frames []string
	Count  int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what the fold needs: samples, locations (with
// inlined lines), functions and the string table.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{Count: s.count}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					st.Frames = append(st.Frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with the field
// number and either the varint value or the length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst, packed = append(dst, x), packed[n:]
	}
	return dst
}

const repoPkg = "github.com/hetmem/hetmem/internal/"

// funcPackage returns the import path of a symbol such as
// "github.com/x/y.(*T).m" or "runtime.chanrecv".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// frameModule maps one frame to a layer name: the repository package
// (numa folds into core, which drives it), "bench" for this program,
// "http" for the standard network stack, "runtime" for the Go runtime,
// and "" for any other library, which takes the module of its caller.
func frameModule(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case strings.HasPrefix(pkg, repoPkg):
		mod := strings.TrimPrefix(pkg, repoPkg)
		if mod == "numa" {
			return "core"
		}
		return mod
	case pkg == "main" || strings.HasPrefix(pkg, "github.com/hetmem/hetmem/perfbench"):
		return "bench"
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "http"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return ""
}

// gcFrames mark work done for the garbage collector.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot"}

// fold is the per-module split of a profile, as shares of all samples.
type fold struct {
	Total int64
	// Owner counts samples by the module of the first frame, from the
	// leaf, that belongs to a named layer (runtime frames excluded):
	// the layer whose own code, or a library or runtime call it made,
	// was on the CPU. Samples with no such frame count as "gc" when a
	// collector frame is present and "sched" otherwise (goroutine
	// switches on the scheduler stack).
	Owner map[string]int64
	// Handoff counts samples whose leaf is in the runtime and whose
	// owner is sim: channel handoff and parking under sim's park/wake.
	Handoff int64
	// GC counts samples with any collector frame, whatever the owner.
	GC int64
}

func foldStacks(stacks []stack) fold {
	f := fold{Owner: map[string]int64{}}
	for _, s := range stacks {
		f.Total += s.Count
		owner, gc := "", false
		for _, fr := range s.Frames {
			for _, g := range gcFrames {
				if strings.HasPrefix(fr, g) {
					gc = true
				}
			}
			if m := frameModule(fr); owner == "" && m != "" && m != "runtime" {
				owner = m
			}
		}
		switch {
		case owner != "":
		case gc:
			owner = "gc"
		default:
			owner = "sched"
		}
		f.Owner[owner] += s.Count
		if gc {
			f.GC += s.Count
		}
		if owner == "sim" && len(s.Frames) > 0 && frameModule(s.Frames[0]) == "runtime" {
			f.Handoff += s.Count
		}
	}
	return f
}

// share returns n as a fraction of all samples.
func (f fold) share(n int64) float64 {
	if f.Total == 0 {
		return 0
	}
	return float64(n) / float64(f.Total)
}
