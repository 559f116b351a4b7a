package compactroute

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestSaveLoadEveryPersistableKind is the registry-wide round-trip:
// every kind the registry marks persistable must Save, Load back with
// the same kind and storage accounting, and answer routing queries
// identically to the in-memory original — the v2 format's core
// contract. (The v1→v2 compatibility path is pinned separately by the
// codec package's golden-file tests.)
func TestSaveLoadEveryPersistableKind(t *testing.T) {
	net := RandomNetwork(31, 70, 0.09, UniformWeights(1, 5))
	g := net.Graph()
	covered := 0
	for _, kind := range Kinds() {
		info, _ := LookupKind(kind)
		if !info.Persistable {
			continue
		}
		covered++
		t.Run(kind, func(t *testing.T) {
			s, err := Build(net, Config{Kind: kind, K: 2, Seed: 7, SFactor: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Save(&buf, s); err != nil {
				t.Fatal(err)
			}
			first := append([]byte(nil), buf.Bytes()...)
			l, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if l.Kind() != kind || l.Name() != s.Name() {
				t.Fatalf("loaded %q/%q, want kind %q name %q", l.Kind(), l.Name(), kind, s.Name())
			}
			if l.Network().HasMetric() {
				t.Fatal("load must not recompute the metric")
			}
			if l.MaxTableBits() != s.MaxTableBits() || l.MeanTableBits() != s.MeanTableBits() {
				t.Fatalf("storage accounting diverges: %d/%v vs %d/%v",
					l.MaxTableBits(), l.MeanTableBits(), s.MaxTableBits(), s.MeanTableBits())
			}
			// Deterministic re-encoding: saving the loaded scheme must
			// reproduce the stream byte for byte.
			var second bytes.Buffer
			if err := Save(&second, l); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second.Bytes()) {
				t.Fatalf("re-encoding differs: %d vs %d bytes", len(first), second.Len())
			}
			for u := 0; u < net.N(); u += 5 {
				for v := 0; v < net.N(); v += 7 {
					a, err1 := s.RouteByName(g.Name(NodeID(u)), g.Name(NodeID(v)))
					b, err2 := l.RouteByName(g.Name(NodeID(u)), g.Name(NodeID(v)))
					if err1 != nil || err2 != nil || a.Delivered != b.Delivered ||
						a.Cost != b.Cost || a.Hops != b.Hops || a.HeaderBits != b.HeaderBits {
						t.Fatalf("route %d→%d diverges: %+v/%v vs %+v/%v", u, v, a, err1, b, err2)
					}
				}
			}
		})
	}
	if covered < 2 {
		t.Fatalf("only %d persistable kinds in the registry; fulltable regressed?", covered)
	}
}

// TestSaveLoadQuick is the always-on round-trip check at facade level
// (the codec package carries the family/property matrix).
func TestSaveLoadQuick(t *testing.T) {
	net := RandomNetwork(21, 80, 0.08, UniformWeights(1, 5))
	s, err := Build(net, Config{Kind: KindPaper, K: 2, Seed: 7, SFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	l, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != s.Name() {
		t.Fatalf("name %q vs %q", l.Name(), s.Name())
	}
	g := net.Graph()
	for u := 0; u < net.N(); u += 7 {
		for v := 0; v < net.N(); v += 11 {
			a, err1 := s.RouteByName(g.Name(NodeID(u)), g.Name(NodeID(v)))
			b, err2 := l.RouteByName(g.Name(NodeID(u)), g.Name(NodeID(v)))
			if err1 != nil || err2 != nil || a.Cost != b.Cost || a.Hops != b.Hops {
				t.Fatalf("route %d→%d diverges: %+v/%v vs %+v/%v", u, v, a, err1, b, err2)
			}
		}
	}
}

// TestPersistenceAcceptance2k is the PR's acceptance scenario: a
// scheme built on a 2k-node graph, saved to disk, and reloaded from
// only the file's bytes (exactly what a fresh cmd/routed process does)
// must answer 1k random source/dest queries identically to the
// in-memory original. ~10s of build; skipped under -short so the race
// job stays fast.
func TestPersistenceAcceptance2k(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-node build; skipped in -short mode")
	}
	const n = 2000
	net := RandomNetwork(1, n, 8.0/n, UniformWeights(1, 8))
	s, err := Build(net, Config{Kind: KindPaper, K: 4, Seed: 1, SFactor: 0.25})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "scheme.crsc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(f, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Network().HasMetric() {
		t.Fatal("load must not recompute the metric")
	}

	g := net.Graph()
	rng := HashName(77, 0)
	for q := 0; q < 1000; q++ {
		rng = HashName(rng, uint64(q))
		u := NodeID(rng % n)
		v := NodeID((rng >> 20) % n)
		a, err1 := s.RouteByName(g.Name(u), g.Name(v))
		b, err2 := loaded.RouteByName(g.Name(u), g.Name(v))
		if err1 != nil || err2 != nil {
			t.Fatalf("query %d→%d: %v / %v", u, v, err1, err2)
		}
		if !a.Delivered || !b.Delivered {
			t.Fatalf("query %d→%d not delivered: %+v vs %+v", u, v, a, b)
		}
		if a.Cost != b.Cost || a.Hops != b.Hops {
			t.Fatalf("query %d→%d diverges: cost %v/%v hops %d/%d",
				u, v, a.Cost, b.Cost, a.Hops, b.Hops)
		}
	}
}
