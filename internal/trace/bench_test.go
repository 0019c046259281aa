package trace

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// The codec benchmarks run over the committed X11 capture; MB/s is
// per byte of JSONL.

func benchCapture(b *testing.B) ([]byte, *Capture) {
	data, err := os.ReadFile("testdata/x11-small.jsonl")
	if err != nil {
		b.Fatal(err)
	}
	c, err := Decode(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	return data, c
}

func BenchmarkDecode(b *testing.B) {
	data, _ := benchCapture(b)
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	_, c := benchCapture(b)
	for i := 0; i < b.N; i++ {
		if err := c.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiff compares the capture with an independently decoded
// copy: the identical-streams case hmtrace diff and replay checks hit.
func BenchmarkDiff(b *testing.B) {
	data, c := benchCapture(b)
	other, err := Decode(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := Diff(c, other); !r.Identical {
			b.Fatal("copies differ")
		}
	}
}

func BenchmarkExportChrome(b *testing.B) {
	_, c := benchCapture(b)
	for i := 0; i < b.N; i++ {
		if err := ExportChrome(c, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
