package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A metric whose layer does no work on the workload reads 0.
var perLayer = func() map[string]string {
	m := map[string]string{
		"sim.build_ms":            "ms",
		"trace.gen_ns_per_access": "ns",
		"service.queue_ms":        "ms",
		"service.encode_ms":       "ms",
		"service.cache_hit_ratio": "ratio",
		"store.get_us":            "us",
		"store.disk_hit_pct":      "%",
		"server.submit_ms":        "ms",
		"server.deliver_ms":       "ms",
		"client.decode_ms":        "ms",
		"uncovered_pct":           "%",
		"trace_overhead_pct":      "%",
	}
	for _, p := range kernelKinds {
		m["sim."+p+".ns_per_access"] = "ns"
	}
	for _, l := range kernelLayers {
		m["kernel."+l+".ns_per_access"] = "ns"
	}
	return m
}()

// kernelLayers are the buckets of the kernel split, in report order.
var kernelLayers = []string{"cache", "flat", "lru", "stream", "core", "sim", "predictors", "runtime", "other"}

// kernelLayer maps a Go package path to its kernel bucket.
func kernelLayer(pkg string) string {
	switch pkg {
	case "stems/internal/cache", "stems/internal/flat", "stems/internal/lru",
		"stems/internal/stream", "stems/internal/core", "stems/internal/sim":
		return strings.TrimPrefix(pkg, "stems/internal/")
	case "stems/internal/sms", "stems/internal/tms", "stems/internal/stride",
		"stems/internal/epoch", "stems/internal/hybrid", "stems/internal/predictors":
		return "predictors"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// ledger derives the traced run's per-layer metrics from its phases
// (untraced and traced, alternating), writes them with the profile's
// package breakdown to .bench_build/ledger/, and fills out.
func ledger(ctx context.Context, w workload, name string, seed int64, phases []phase, out map[string]metric) error {
	var untraced, traced []phase
	for _, p := range phases {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	u, t := merge(untraced), merge(traced)
	m := make(map[string]float64)
	if ju := okPerSecond(u); ju > 0 {
		m["trace_overhead_pct"] = 100 * (ju - okPerSecond(t)) / ju
	}
	if acc := t.delta.accesses; acc > 0 {
		for pkg, ns := range t.self {
			m["kernel."+kernelLayer(pkg)+".ns_per_access"] += float64(ns) / float64(acc)
		}
	}
	if err := w.probe(ctx, t, m); err != nil {
		return err
	}

	for k, v := range m {
		unit, ok := perLayer[k]
		if !ok {
			return fmt.Errorf("metric %q missing from the per-layer table", k)
		}
		out[k] = metric{v, unit}
	}
	for k, unit := range perLayer {
		if _, ok := out[k]; !ok {
			out[k] = metric{0, unit}
		}
	}
	return writeLedger(name, seed, out, t)
}

// merge pools phases into one: samples, times, counter growth and
// profile self times add up.
func merge(ps []phase) phase {
	var out phase
	out.self = make(map[string]int64)
	for _, p := range ps {
		out.traced = p.traced
		out.samples = append(out.samples, p.samples...)
		out.wall += p.wall
		out.cpu += p.cpu
		out.delta = out.delta.add(p.delta, 1)
		for k, v := range p.self {
			out.self[k] += v
		}
	}
	return out
}

func okPerSecond(p phase) float64 {
	ok := 0
	for _, s := range p.samples {
		if s.err == nil {
			ok++
		}
	}
	return float64(ok) / p.wall.Seconds()
}

// writeLedger records the per-layer metrics and the traced phase's CPU
// self time by package in .bench_build/ledger/<workload>-seed<n>.json.
func writeLedger(name string, seed int64, metrics map[string]metric, p phase) error {
	type pkgTime struct {
		Package string  `json:"package"`
		SelfMs  float64 `json:"self_ms"`
	}
	doc := struct {
		Workload  string            `json:"workload"`
		Seed      int64             `json:"seed"`
		Jobs      int               `json:"jobs"`
		WallS     float64           `json:"wall_s"`
		CPUS      float64           `json:"cpu_s"`
		Metrics   map[string]metric `json:"metrics"`
		SelfByPkg []pkgTime         `json:"self_by_package"`
	}{Workload: name, Seed: seed, Jobs: len(p.samples), WallS: p.wall.Seconds(), CPUS: p.cpu.Seconds(), Metrics: metrics}
	for pkg, ns := range p.self {
		doc.SelfByPkg = append(doc.SelfByPkg, pkgTime{pkg, float64(ns) / 1e6})
	}
	sort.Slice(doc.SelfByPkg, func(i, j int) bool { return doc.SelfByPkg[i].SelfMs > doc.SelfByPkg[j].SelfMs })
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(".bench_build", "ledger")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	fmt.Fprintf(os.Stderr, "perfbench: ledger written to %s\n", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfByPackage decodes a gzipped pprof CPU profile and sums each
// sample's CPU nanoseconds into the package of its leaf function (the
// innermost frame, inlining included): self time by package.
func selfByPackage(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type smp struct {
		loc uint64
		ns  int64
	}
	var (
		strs    []string
		funcs   = make(map[uint64]uint64) // function id → name string index
		leaf    = make(map[uint64]uint64) // location id → leaf function id
		samples []smp
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s smp
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, leaf first
					ids := varints(v, b)
					if len(ids) > 0 && s.loc == 0 {
						s.loc = ids[0]
					}
				case 2: // value: [samples, cpu nanoseconds]
					vals := varints(v, b)
					if len(vals) > 0 {
						s.ns = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line, innermost first
					if fn == 0 {
						return fields(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			leaf[id] = fn
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range samples {
		name := ""
		if si, ok := funcs[leaf[s.loc]]; ok && si < uint64(len(strs)) {
			name = strs[si]
		}
		out[packageOf(name)] += s.ns
	}
	return out, nil
}

// packageOf is the package path of a fully qualified Go function name,
// such as "stems/internal/cache.(*Cache).Access". Type arguments and
// receivers, which may hold other package paths, are cut off first.
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

var errProto = errors.New("malformed profile")

// fields walks one protobuf message, calling fn with each field's number
// and its varint value (wire types 0, 1, 5) or bytes (wire type 2).
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var (
			v    uint64
			data []byte
		)
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated integer field occurrence: one unpacked value,
// or a packed run of them.
func varints(v uint64, packed []byte) []uint64 {
	if packed == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		out = append(out, x)
		packed = packed[n:]
	}
	return out
}
