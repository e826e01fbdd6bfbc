package schedule

import (
	"fmt"
	"strconv"
	"strings"

	"harl/internal/sketch"
)

// MarshalSteps renders the schedule's transform steps as a compact, stable
// text form suitable for tuning-record logs: the sketch index followed by one
// token per tile row and annotation knob. The encoding is canonical — two
// schedules marshal to the same string exactly when they are the same point
// of the search space — and round-trips byte-identically through
// UnmarshalSteps.
//
//	sk=1 s0=8,4,2,16 s1=64,1,4,4 r0=16,64 ca=1 pf=2 ur=3/4
func (s *Schedule) MarshalSteps() string {
	var buf [128]byte // on the stack: most renderings fit, a longer one grows onto the heap
	b := strconv.AppendInt(append(buf[:0], "sk="...), int64(s.Sk.ID), 10)
	for k, rows := range [2][][]int{s.SpatialTiles, s.ReduceTiles} {
		for a, row := range rows {
			b = append(strconv.AppendInt(append(b, [2]string{" s", " r"}[k]...), int64(a), 10), '=')
			for j, x := range row {
				b = strconv.AppendInt(append(b, ","[:min(j, 1)]...), int64(x), 10) // a comma before all but the first
			}
		}
	}
	for k, x := range [4]int{s.ComputeAt, s.ParallelFuse, s.UnrollIdx, s.NumUnroll} {
		b = strconv.AppendInt(append(b, [4]string{" ca=", " pf=", " ur=", "/"}[k]...), int64(x), 10)
	}
	return string(b)
}

// UnmarshalSteps reconstructs a schedule from its MarshalSteps form against
// the sketch list of the same subgraph (sketch generation is deterministic,
// so the list regenerated from an equal-fingerprint workload matches the one
// the schedule was serialized under). The result is validated, so a record
// from a different workload fails loudly rather than yielding a malformed
// schedule.
func UnmarshalSteps(sketches []*sketch.Sketch, steps string) (*Schedule, error) {
	s := &Schedule{}
	for _, tok := range strings.Fields(steps) {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("schedule: malformed step token %q", tok)
		}
		switch {
		case key == "sk":
			id, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("schedule: bad sketch id %q", val)
			}
			if id < 0 || id >= len(sketches) {
				return nil, fmt.Errorf("schedule: sketch id %d out of %d generated sketches", id, len(sketches))
			}
			s.Sk = sketches[id]
		case key == "ca":
			v, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("schedule: bad compute-at %q", val)
			}
			s.ComputeAt = v
		case key == "pf":
			v, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("schedule: bad parallel-fuse %q", val)
			}
			s.ParallelFuse = v
		case key == "ur":
			idx, num, ok := strings.Cut(val, "/")
			if !ok {
				return nil, fmt.Errorf("schedule: bad unroll token %q", val)
			}
			vi, err1 := strconv.Atoi(idx)
			vn, err2 := strconv.Atoi(num)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("schedule: bad unroll token %q", val)
			}
			s.UnrollIdx, s.NumUnroll = vi, vn
		case strings.HasPrefix(key, "s"), strings.HasPrefix(key, "r"):
			reduce := key[0] == 'r'
			axis, err := strconv.Atoi(key[1:])
			if err != nil {
				return nil, fmt.Errorf("schedule: bad tile-row key %q", key)
			}
			row, err := splitInts(val)
			if err != nil {
				return nil, fmt.Errorf("schedule: bad tile row %q: %v", tok, err)
			}
			if reduce {
				if axis != len(s.ReduceTiles) {
					return nil, fmt.Errorf("schedule: reduce tile row %d out of order", axis)
				}
				s.ReduceTiles = append(s.ReduceTiles, row)
			} else {
				if axis != len(s.SpatialTiles) {
					return nil, fmt.Errorf("schedule: spatial tile row %d out of order", axis)
				}
				s.SpatialTiles = append(s.SpatialTiles, row)
			}
		default:
			return nil, fmt.Errorf("schedule: unknown step token %q", tok)
		}
	}
	if s.Sk == nil {
		return nil, fmt.Errorf("schedule: steps %q carry no sketch id", steps)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func splitInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
