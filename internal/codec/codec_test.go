package codec_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"compactroute"
	"compactroute/internal/codec"
	"compactroute/internal/core"
	"compactroute/internal/gen"
	"compactroute/internal/xrand"
)

// families are the generator families the round-trip property is
// checked on; the satellite requirement is ≥3.
var families = []struct {
	name string
	net  func() *compactroute.Network
	k    int
}{
	{"gnp", func() *compactroute.Network {
		return compactroute.RandomNetwork(3, 120, 0.06, compactroute.UniformWeights(1, 8))
	}, 3},
	{"grid", func() *compactroute.Network {
		return compactroute.GridNetwork(4, 11, 11, compactroute.UniformWeights(1, 4))
	}, 2},
	{"geometric", func() *compactroute.Network {
		return compactroute.GeometricNetwork(5, 110, 0.22)
	}, 2},
	{"scalefree", func() *compactroute.Network {
		return compactroute.ScaleFreeNetwork(6, 100, 2, compactroute.UniformWeights(1, 6))
	}, 3},
}

func buildFamily(t *testing.T, fi int) *compactroute.Scheme {
	t.Helper()
	f := families[fi]
	s, err := compactroute.Build(f.net(), compactroute.Config{Kind: compactroute.KindPaper, K: f.k, Seed: 9, SFactor: 0.5})
	if err != nil {
		t.Fatalf("%s: %v", f.name, err)
	}
	return s
}

// TestRoundTripProperty is the satellite property test: across ≥3
// generator families, Save→Load must (a) re-encode byte-identically
// and (b) answer ≥1k random RouteByName queries identically (cost and
// hops) to the in-memory original.
func TestRoundTripProperty(t *testing.T) {
	const queriesPerFamily = 300 // ×4 families = 1200 ≥ 1k
	totalQueries := 0
	for fi, f := range families {
		f := f
		fi := fi
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			orig := buildFamily(t, fi)
			net := orig.Network()

			var first bytes.Buffer
			if err := compactroute.Save(&first, orig); err != nil {
				t.Fatal(err)
			}
			loaded, err := compactroute.Load(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			// (a) byte-identical re-encoding.
			var second bytes.Buffer
			if err := compactroute.Save(&second, loaded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("re-encoding differs: %d vs %d bytes", first.Len(), second.Len())
			}

			// Storage accounting must survive the trip exactly.
			if orig.MaxTableBits() != loaded.MaxTableBits() {
				t.Fatalf("max table bits: %d vs %d", orig.MaxTableBits(), loaded.MaxTableBits())
			}
			if orig.MeanTableBits() != loaded.MeanTableBits() {
				t.Fatalf("mean table bits: %v vs %v", orig.MeanTableBits(), loaded.MeanTableBits())
			}
			if oc, lc := orig.Core().Report, loaded.Core().Report; oc != lc {
				t.Fatalf("build report: %+v vs %+v", oc, lc)
			}

			// (b) identical routing results on random queries.
			g := net.Graph()
			r := xrand.New(uint64(0xabc + fi))
			for q := 0; q < queriesPerFamily; q++ {
				src := g.Name(compactroute.NodeID(r.Intn(net.N())))
				dst := g.Name(compactroute.NodeID(r.Intn(net.N())))
				a, err1 := orig.RouteByName(src, dst)
				b, err2 := loaded.RouteByName(src, dst)
				if err1 != nil || err2 != nil {
					t.Fatalf("query %#x→%#x: %v / %v", src, dst, err1, err2)
				}
				if a.Delivered != b.Delivered || a.Cost != b.Cost || a.Hops != b.Hops || a.HeaderBits != b.HeaderBits {
					t.Fatalf("query %#x→%#x diverges: %+v vs %+v", src, dst, a, b)
				}
			}
			totalQueries += queriesPerFamily
		})
	}
}

// TestGoldenFile pins the on-disk format: the committed golden file
// (current version) must decode, rehydrate, route, and re-encode to
// the exact committed bytes. Regenerate with CODEC_WRITE_GOLDEN=1 go
// test ./internal/codec after an intentional format change (and bump
// Version).
func TestGoldenFile(t *testing.T) {
	golden := filepath.Join("testdata", "golden_v2.crsc")
	if os.Getenv("CODEC_WRITE_GOLDEN") != "" {
		s := buildGolden(t)
		var buf bytes.Buffer
		if err := codec.Encode(&buf, s); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with CODEC_WRITE_GOLDEN=1)", err)
	}
	s, err := codec.Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	// The rehydrated scheme must actually route.
	g := s.G()
	delivered, _, _, err := s.RouteTrace(0, g.Name(compactroute.NodeID(g.N()-1)))
	if err != nil || !delivered {
		t.Fatalf("golden scheme does not route: delivered=%v err=%v", delivered, err)
	}
	var got bytes.Buffer
	if err := codec.Encode(&got, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Fatalf("golden re-encoding differs from committed file (%d vs %d bytes); "+
			"format changed without a version bump?", len(want), got.Len())
	}
}

// TestGoldenV1StillLoads is the backward-compatibility pin: the
// golden_v1.crsc file was written by the format-v1 encoder (before the
// kind tag existed) and must keep loading forever. Decoding takes the
// v1 path (kind implicitly "paper"); the rehydrated scheme must route
// and must round-trip through the *current* format identically to a
// freshly built equivalent.
func TestGoldenV1StillLoads(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_v1.crsc"))
	if err != nil {
		t.Fatalf("%v (the v1 golden is a committed artifact; it is never regenerated)", err)
	}
	p, err := codec.DecodePayload(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != codec.KindPaper || p.Core == nil {
		t.Fatalf("v1 stream decoded as kind %q", p.Kind)
	}
	s, err := codec.Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	g := s.G()
	delivered, _, _, err := s.RouteTrace(0, g.Name(compactroute.NodeID(g.N()-1)))
	if err != nil || !delivered {
		t.Fatalf("v1 golden scheme does not route: delivered=%v err=%v", delivered, err)
	}
	// Re-encoding upgrades the stream to the current version; the
	// upgraded bytes must themselves decode to a scheme that routes
	// identically.
	var upgraded bytes.Buffer
	if err := codec.Encode(&upgraded, s); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, upgraded.Bytes()) {
		t.Fatal("re-encoding a v1 stream should produce a current-version stream")
	}
	s2, err := codec.Decode(bytes.NewReader(upgraded.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u += 5 {
		for v := 0; v < g.N(); v += 7 {
			ok1, _, c1, err1 := s.RouteTrace(compactroute.NodeID(u), g.Name(compactroute.NodeID(v)))
			ok2, _, c2, err2 := s2.RouteTrace(compactroute.NodeID(u), g.Name(compactroute.NodeID(v)))
			if err1 != nil || err2 != nil || ok1 != ok2 || c1 != c2 {
				t.Fatalf("v1 vs upgraded diverge at %d→%d: %v/%v cost %v/%v", u, v, err1, err2, c1, c2)
			}
		}
	}
}

func buildGolden(t *testing.T) *core.Scheme {
	t.Helper()
	g := gen.Gnp(42, 60, 0.1, gen.Uniform(1, 4))
	s, err := core.Build(g, core.Params{K: 2, Seed: 42, SFactor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func encodeOne(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := codec.Encode(&buf, buildGolden(t)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCorruptionDetected(t *testing.T) {
	data := encodeOne(t)

	// Sanity: the pristine stream decodes.
	if _, err := codec.DecodeSnapshot(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}

	// Any single-byte flip must be rejected (CRC-32 catches all of
	// them; framing and validation catch most before the checksum).
	// Sample positions across the stream rather than all of them.
	step := len(data)/257 + 1
	for pos := 0; pos < len(data); pos += step {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x41
		if _, err := codec.DecodeSnapshot(bytes.NewReader(mut)); err == nil {
			if _, err := codec.Decode(bytes.NewReader(mut)); err == nil {
				t.Fatalf("flip at byte %d of %d went undetected", pos, len(data))
			}
		}
	}

	// Truncation at any sampled point must be rejected.
	for _, cut := range []int{0, 1, 3, 5, len(data) / 3, len(data) - 5, len(data) - 1} {
		if _, err := codec.DecodeSnapshot(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", cut, len(data))
		}
	}

	// A v2 stream with no sections at all (magic + version + a
	// consistent footer) must not decode as a valid empty payload.
	empty := []byte{
		'C', 'R', 'S', 'C', 2, 0, // magic, version 2
		0xFF, 4, 0, 0, 0, 0, 0, 0, 0, // footer header: id, len=4
		0, 0, 0, 0, // CRC-32 of zero section bytes
	}
	if _, err := codec.DecodePayload(bytes.NewReader(empty)); err == nil {
		t.Fatal("kindless empty v2 stream went undetected")
	}

	// Wrong magic and wrong version.
	mut := append([]byte(nil), data...)
	mut[0] = 'X'
	if _, err := codec.DecodeSnapshot(bytes.NewReader(mut)); err == nil {
		t.Fatal("bad magic went undetected")
	}
	mut = append([]byte(nil), data...)
	mut[4] = 99
	if _, err := codec.DecodeSnapshot(bytes.NewReader(mut)); err == nil {
		t.Fatal("future version went undetected")
	}
}

// TestSaveRejectsNonPersistableKinds: kinds without a persistent form
// must refuse cleanly — with the typed sentinel, not by writing
// garbage. (fulltable gained a persistent form in format v2 and is
// covered by the facade round-trip tests.)
func TestSaveRejectsNonPersistableKinds(t *testing.T) {
	net := compactroute.RandomNetwork(2, 40, 0.15, compactroute.UnitWeights())
	for _, kind := range compactroute.Kinds() {
		info, _ := compactroute.LookupKind(kind)
		if info.Persistable {
			continue
		}
		s, err := compactroute.Build(net, compactroute.Config{Kind: kind, K: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := compactroute.Save(&buf, s); !errors.Is(err, compactroute.ErrNotPersistable) {
			t.Fatalf("saving kind %s: err %v, want ErrNotPersistable", kind, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("saving kind %s wrote %d bytes before refusing", kind, buf.Len())
		}
	}
}

// TestLoadedSchemeServesWithoutMetric pins the contract Load
// advertises: routing works immediately, stretch data appears only
// after EnsureMetric.
func TestLoadedSchemeServesWithoutMetric(t *testing.T) {
	orig := buildFamily(t, 0)
	var buf bytes.Buffer
	if err := compactroute.Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := compactroute.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Network().HasMetric() {
		t.Fatal("loaded network should not have a metric")
	}
	g := loaded.Network().Graph()
	res, err := loaded.RouteByName(g.Name(0), g.Name(compactroute.NodeID(g.N()-1)))
	if err != nil || !res.Delivered {
		t.Fatalf("route without metric: %+v, %v", res, err)
	}
	if res.ShortestCost != 0 || res.Stretch() != 1 {
		t.Fatalf("metric-less result should report unknown stretch, got %+v", res)
	}
	loaded.Network().EnsureMetric()
	res2, err := loaded.RouteByName(g.Name(0), g.Name(compactroute.NodeID(g.N()-1)))
	if err != nil {
		t.Fatal(err)
	}
	if res2.ShortestCost <= 0 {
		t.Fatalf("after EnsureMetric, shortest cost should be known: %+v", res2)
	}
	if res2.Cost != res.Cost || res2.Hops != res.Hops {
		t.Fatalf("EnsureMetric changed routing: %+v vs %+v", res, res2)
	}
}

// TestLineageRoundTrip pins the optional lineage section: a payload
// persisted as part of a versioned topology snapshot re-decodes with
// its provenance intact and re-encodes byte-identically, while plain
// payloads keep carrying no lineage at all.
func TestLineageRoundTrip(t *testing.T) {
	s := buildFamily(t, 0)
	var plain bytes.Buffer
	if err := compactroute.Save(&plain, s); err != nil {
		t.Fatal(err)
	}
	p, err := codec.DecodePayload(bytes.NewReader(plain.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Lineage != nil {
		t.Fatalf("plain payload decoded with lineage %+v", p.Lineage)
	}

	p.Lineage = &codec.Lineage{Version: 7, Parent: 6, MutFrom: 120, MutTo: 180, BuildWallNanos: 42e6}
	var tagged bytes.Buffer
	if err := codec.EncodePayload(&tagged, p); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(plain.Bytes(), tagged.Bytes()) {
		t.Fatal("lineage section changed nothing on the wire")
	}
	p2, err := codec.DecodePayload(bytes.NewReader(tagged.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Lineage == nil || *p2.Lineage != *p.Lineage {
		t.Fatalf("lineage did not survive: %+v", p2.Lineage)
	}
	var again bytes.Buffer
	if err := codec.EncodePayload(&again, p2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tagged.Bytes(), again.Bytes()) {
		t.Fatal("decode→encode of a lineage-tagged stream is not byte-identical")
	}
	// The tagged stream still loads through the public facade (the
	// lineage is provenance, not payload).
	if _, err := compactroute.Load(bytes.NewReader(tagged.Bytes())); err != nil {
		t.Fatalf("facade Load of lineage-tagged stream: %v", err)
	}
}
