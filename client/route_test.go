package client

import (
	"encoding/json"
	"math"
	"testing"
)

// sameRoute reports whether two routes are equal, floats bit for bit
// (so -0 and 0 differ) and versions by value.
func sameRoute(a, b Route) bool {
	if (a.Version == nil) != (b.Version == nil) || a.Version != nil && *a.Version != *b.Version {
		return false
	}
	return a.Delivered == b.Delivered && a.Hops == b.Hops && a.HeaderBits == b.HeaderBits &&
		math.Float64bits(a.Cost) == math.Float64bits(b.Cost) &&
		math.Float64bits(a.ShortestCost) == math.Float64bits(b.ShortestCost) &&
		math.Float64bits(a.Stretch) == math.Float64bits(b.Stretch)
}

// checkDecode holds decodeRoute to json.Unmarshal on one input: both
// error, or neither does and they agree on the value.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	got, gerr := decodeRoute(data)
	var want Route
	werr := json.Unmarshal(data, &want)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("decode %q: error %v, encoding/json %v", data, gerr, werr)
	}
	if werr == nil && !sameRoute(got, want) {
		t.Fatalf("decode %q: %+v, encoding/json %+v", data, got, want)
	}
}

// FuzzRouteCodec holds the route codec to encoding/json. Encode: the
// route built from the fuzzed fields encodes to json.Marshal's bytes
// plus a newline, or both refuse it; what it encodes to decodes back
// as encoding/json decodes it. Decode: arbitrary bytes decode to the
// value json.Unmarshal gives, with an error exactly when it errs.
func FuzzRouteCodec(f *testing.F) {
	v7 := uint64(7)
	for _, r := range []Route{
		{},
		{Delivered: true, Cost: 12.5, Hops: 3, HeaderBits: 96, ShortestCost: 10, Stretch: 1.25, Version: &v7},
		{Cost: math.Copysign(0, -1), ShortestCost: math.Copysign(0, -1), Stretch: math.Copysign(0, -1)},
		{Cost: 1e-7, ShortestCost: 1e21, Stretch: 1e20, Hops: -1, HeaderBits: math.MinInt64},
		{Cost: 1.5e-9, ShortestCost: 5e-324, Stretch: math.MaxFloat64, Version: new(uint64)},
		{Cost: 0.1 + 0.2, ShortestCost: 123456789012345678, Stretch: 1.0000000000000002},
		{Cost: math.NaN()},
		{Cost: 1, ShortestCost: math.Inf(1)},
		{Cost: 1, Stretch: math.Inf(-1)},
	} {
		version := uint64(0)
		if r.Version != nil {
			version = *r.Version
		}
		b, _ := r.AppendJSON(nil)
		f.Add(b, r.Delivered, r.Cost, r.ShortestCost, r.Stretch, int64(r.Hops), r.HeaderBits, version, r.Version != nil)
	}
	for _, s := range []string{
		`{"cost":2,"delivered":true,"hops":1,"headerBits":8}`,
		` {"delivered" : true, "cost": 2, "hops": 1, "headerBits": 8}`,
		`{"delivered":true,"cost":2,"hops":1,"headerBits":8,"extra":[1,{"a":null}]}`,
		`{"delivered":true,"cost":2,"hops":1,"headerBits":8,"version":null}`,
		`{"delivered":true,"cost":2,"hops":1,"headerBits":8,"version":-0}`,
		`{"deli\u0076ered":true,"Cost":2,"HOPS":1,"headerBits":8}`,
		`{"delivered":true,"cost":1E400,"hops":1,"headerBits":8}`,
		`{"delivered":true,"cost":2,"hops":1.5,"headerBits":8}`,
		`{"delivered":true,"cost":02,"hops":1,"headerBits":8}`,
		`{"delivered":true,"cost":2,"hops":1,"headerBits":8,"stretch":2,"shortestCost":1}`,
		`{"delivered":true,"cost":2,"hops":1,"headerBits":8}` + "\r\n\t x",
		`{"delivered":true,"cost":2,"hops":1,"headerBits":8`,
		`null`,
		``,
	} {
		f.Add([]byte(s), false, 0.0, 0.0, 0.0, int64(0), int64(0), uint64(0), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, delivered bool, cost, shortest, stretch float64, hops, headerBits int64, version uint64, hasVersion bool) {
		checkDecode(t, data)

		r := Route{Delivered: delivered, Cost: cost, Hops: int(hops), HeaderBits: headerBits, ShortestCost: shortest, Stretch: stretch}
		if hasVersion {
			r.Version = &version
		}
		want, werr := json.Marshal(r)
		got, gerr := r.AppendJSON([]byte("prefix"))
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("encode %+v: error %v, encoding/json %v", r, gerr, werr)
		}
		if werr != nil {
			if string(got) != "prefix" {
				t.Fatalf("encode %+v: refused but wrote %q", r, got)
			}
			return
		}
		if string(got) != "prefix"+string(want)+"\n" {
			t.Fatalf("encode %+v:\n got %q\nwant %q", r, got, "prefix"+string(want)+"\n")
		}
		checkDecode(t, got[len("prefix"):])
		if _, ok := scanRoute(got[len("prefix"):]); !ok {
			t.Fatalf("encode %+v: %q is not read in place", r, got)
		}
	})
}
