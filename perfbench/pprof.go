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

// cpuLayers maps a layer to the function-name fragments that mark a CPU
// profile sample as spent in it: the sample's stack holds a frame whose
// name contains one of them. Merge identity has no stage timer and no
// progress event, so the profile is the only place its share shows.
// Stage I is the star miner, the radius-2 tree miner and the catalog
// rebuild that the Stage I timer also covers; seed drawing and
// materialization, which run in the same package during Stage II, are
// not Stage I.
var cpuLayers = map[string][]string{
	"stage1": {"repro/internal/spider.(*StarMiner).", "repro/internal/spider.MineTrees", "repro/internal/spider.(*Catalog).Rebuild"},
	"merge":  {"repro/internal/spidermine.(*Miner).checkMerges", "repro/internal/spidermine.(*Miner).tryMerge"},
}

// cpuProfile tallies a pprof CPU profile by layer.
type cpuProfile struct {
	total  int64            // CPU nanoseconds over all samples
	layers map[string]int64 // CPU nanoseconds of samples in each layer
}

func (c *cpuProfile) share(layer string) float64 {
	return ratio(float64(c.layers[layer]), float64(c.total))
}

// add folds one gzipped profile.proto CPU profile into c. It decodes
// only what it needs: samples (location ids, values), locations (line
// function ids), functions (name index) and the string table.
func (c *cpuProfile) add(data []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		locFns  = make(map[uint64][]uint64) // location id → function ids
		fnName  = make(map[uint64]uint64)   // function id → string index
		strs    []string
	)
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
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
			var id, name uint64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
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
		return fmt.Errorf("cpu profile: %w", err)
	}
	if c.layers == nil {
		c.layers = make(map[string]int64)
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ns := int64(s.values[len(s.values)-1]) // cpu/nanoseconds is the last sample type
		c.total += ns
		for layer, frags := range cpuLayers {
			if stackHas(s.locs, locFns, fnName, strs, frags) {
				c.layers[layer] += ns
			}
		}
	}
	return nil
}

func stackHas(locs []uint64, locFns map[uint64][]uint64, fnName map[uint64]uint64, strs []string, frags []string) bool {
	for _, l := range locs {
		for _, fn := range locFns[l] {
			i := fnName[fn]
			if i >= uint64(len(strs)) {
				continue
			}
			for _, f := range frags {
				if strings.Contains(strs[i], f) {
					return true
				}
			}
		}
	}
	return false
}

// fields walks the top-level fields of one protobuf message, passing
// each field number with its varint value or its length-delimited bytes.
func fields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errors.New("short fixed field")
			}
			msg = msg[w:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
