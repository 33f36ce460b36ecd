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

// hostModules are the packages under treesls/internal whose share of the
// traced run's CPU profile is reported as host.<module>_frac. A
// subpackage folds into its parent (cluster/scenario into cluster,
// obs/audit into obs, apps/kvstore into apps).
var hostModules = []string{
	"alloc", "apps", "caps", "checkpoint", "cluster", "extsync", "faultplane", "journal",
	"kernel", "linearize", "mem", "net", "obs", "repl", "simclock", "vm",
}

// gcFrames mark a sample as garbage-collection work wherever they appear
// on its stack.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot",
}

// foldProfile adds one gzipped pprof CPU profile into fold: sample count by
// the module of the innermost treesls/internal frame on the sample's
// stack, so a module is charged for its own code and for the runtime and
// library calls it makes (map iteration, hashing, allocation). A sample is
// "gc" when any frame is collector work, and "other" when no
// treesls/internal frame is on its stack (the benchmark's own code).
func foldProfile(raw []byte, fold map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		samples   [][]uint64              // location ids, leaf first
		counts    []uint64                // first value of each sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs, vals []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				var dst *[]uint64
				switch n {
				case 1:
					dst = &locs
				case 2:
					dst = &vals
				default:
					return nil
				}
				if b == nil { // unpacked
					*dst = append(*dst, v)
					return nil
				}
				return eachVarint(b, func(x uint64) { *dst = append(*dst, x) })
			})
			if err != nil || len(vals) == 0 {
				return errors.New("profile: bad sample")
			}
			samples = append(samples, locs)
			counts = append(counts, vals[0])
			return nil
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
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
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	name := func(fn uint64) string {
		if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	for i, locs := range samples {
		module := ""
		gc := false
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				n := name(fn)
				if rest, ok := strings.CutPrefix(n, "treesls/internal/"); ok && module == "" {
					module = rest[:strings.IndexAny(rest+".", "./")]
				}
				for _, g := range gcFrames {
					gc = gc || strings.HasPrefix(n, g)
				}
			}
		}
		switch {
		case gc:
			module = "gc"
		case module == "":
			module = "other"
		}
		fold[module] += float64(counts[i])
	}
	return nil
}

// eachField walks the fields of one protobuf message: fn gets the field
// number and either the varint value (b == nil) or the length-delimited
// bytes.
func eachField(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// hostFracs turns a fold into the host.*_frac per-layer metrics.
func hostFracs(fold map[string]float64, layer map[string]float64) {
	var total float64
	for _, v := range fold {
		total += v
	}
	for _, m := range append(hostModules, "gc") {
		layer["host."+m+"_frac"] = ratio(fold[m], total)
	}
}
