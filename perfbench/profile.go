package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuProfile is the part of a pprof CPU profile the attribution needs:
// each sample's stack as function names, innermost frame first, and its
// CPU time.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	stack []string
	nanos int64
}

// The profile.proto field numbers read by parseProfile.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2

	valueTypeUnit = 2
)

// parseProfile decodes a gzipped profile.proto as written by
// runtime/pprof. Sample values are taken from the sample type whose unit
// is nanoseconds (the CPU time, as opposed to the sample count).
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		units     []int64 // sample types' unit string indices
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profStringTable:
			strs = append(strs, string(b))
		case profSampleType:
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == valueTypeUnit {
					units = append(units, int64(v))
				}
				return nil
			})
		case profSample:
			var s rawSample
			err := eachField(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case sampleLocationID:
					return packed(v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return packed(v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	vi := -1
	for i, u := range units {
		if u >= 0 && u < int64(len(strs)) && strs[u] == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{samples: make([]cpuSample, 0, len(samples))}
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample without a CPU value")
		}
		cs := cpuSample{nanos: s.values[vi]}
		for _, loc := range s.locs {
			// A location lists its inlined functions innermost first.
			for _, f := range locFuncs[loc] {
				cs.stack = append(cs.stack, str(funcNames[f]))
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

// attribute charges each sample's CPU time to the innermost frame that
// belongs to a repository package, so standard-library helpers such as
// memmove count against their caller; samples with no repository frame
// go to "runtime". It returns seconds per layer and the profile total.
func (p *cpuProfile) attribute() (map[string]float64, float64) {
	out := make(map[string]float64, len(cpuLayers))
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		out[layer] += float64(s.nanos) / 1e9
		total += s.nanos
	}
	return out, float64(total) / 1e9
}

// eachField walks one protobuf message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
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
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packed feeds a repeated varint field to add, whether it arrived packed
// (data holds the run of varints) or as one unpacked value.
func packed(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}
