package sweep

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzDigestCells bounds the grids whose digest round trip is checked:
// SpecDigest enumerates every cell, and a few hundred input bytes can
// describe a cartesian product far too large to enumerate in a fuzz
// iteration.
const fuzzDigestCells = 4096

// FuzzLoadSpec drives the strict spec loader with arbitrary bytes.
// LoadSpec must never panic; a spec it accepts must describe at least one
// cell; and re-marshaling an accepted spec must load back to the same
// SpecDigest, so a checkpoint or a distributed worker stamped with the
// digest of a re-serialized spec still matches. Specs naming trace files
// skip the digest check: it hashes the file's bytes, and the fuzzer must
// not be steered into reading arbitrary paths.
func FuzzLoadSpec(f *testing.F) {
	example, err := json.Marshal(ExampleSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Add([]byte(`{"name":"one","fields":[{"kind":"peaks"}],"ks":[4],"rcs":[30]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n := s.NumCells(); n < 1 {
			t.Fatalf("accepted spec has %d cells", n)
		}
		if s.NumCells() > fuzzDigestCells {
			return
		}
		for _, ts := range s.Traces {
			if ts.Path != "" {
				return
			}
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		back, err := LoadSpec(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-marshaled spec rejected: %v\n%s", err, out)
		}
		if got, want := back.SpecDigest(), s.SpecDigest(); got != want {
			t.Fatalf("digest %s after round trip, %s before\n%s", got, want, out)
		}
	})
}
