package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
)

// defaultSeed is the seed whose outcomes expected.json records.
const defaultSeed = 1

// How many operations expected.json records per stream: more than a run
// of the benchmark's window completes.
const (
	recordLibOps     = 64
	recordServiceOps = 480 // distinct requests per service client
)

//go:embed expected.json
var expectedJSON []byte

// expectations are the recorded outcomes of the default seed, per stream:
// "sim-long", "forecast-aging", and "service-quick/<client>" indexed by the
// client's distinct requests.
type expectations struct {
	Seed uint64               `json:"seed"`
	Ops  map[string][]outcome `json:"ops"`
}

func loadExpected() (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// check compares the outcome of operation i of a stream with the recorded
// one when the run uses the recorded seed, and checks that it is plausible
// for any seed.
func (e *expectations) check(stream string, i int, got outcome, seed uint64) error {
	if err := plausible(got); err != nil {
		return fmt.Errorf("%s op %d: %v", stream, i, err)
	}
	if seed != e.Seed {
		return nil
	}
	want := e.Ops[stream]
	if i >= len(want) {
		return nil // beyond the recorded range: plausibility only
	}
	if got != want[i] {
		return fmt.Errorf("%s op %d: got %+v, expected %+v", stream, i, got, want[i])
	}
	return nil
}

// plausible rejects outcomes no correct simulation produces.
func plausible(o outcome) error {
	ipc, err := strconv.ParseFloat(o.MeanIPC, 64)
	if err != nil || !(ipc > 0) || math.IsInf(ipc, 0) {
		return fmt.Errorf("mean IPC %q is not a positive number", o.MeanIPC)
	}
	if o.Lifetime != "" {
		if _, err := strconv.ParseFloat(o.Lifetime, 64); err != nil || o.Points < 1 {
			return fmt.Errorf("forecast lifetime %q with %d points", o.Lifetime, o.Points)
		}
		return nil
	}
	if o.Hits+o.Misses == 0 {
		return fmt.Errorf("no LLC accesses")
	}
	return nil
}

// recordExpected runs the default seed's operations of every stream
// untraced, two at a time, and writes their outcomes to path.
func recordExpected(path string) error {
	type job struct {
		stream string
		i      int
		run    func() (opRecord, error)
	}
	e := expectations{Seed: defaultSeed, Ops: map[string][]outcome{}}
	var jobs []job
	for _, name := range []string{simLong, forecastAging} {
		w := libWorkloads[name]
		s := newInputStream(name, defaultSeed)
		s.next() // the set-up warm-up
		e.Ops[name] = make([]outcome, recordLibOps)
		for i := 0; i < recordLibOps; i++ {
			in := s.next()
			jobs = append(jobs, job{name, i, func() (opRecord, error) { return w.untraced(in) }})
		}
	}
	for c := 0; c < serviceClients; c++ {
		stream := serviceStream(c)
		s := newJobStream(defaultSeed, c)
		e.Ops[stream] = make([]outcome, recordServiceOps)
		for s.uniques < recordServiceOps {
			j := s.next()
			if j.Unique < 0 {
				continue
			}
			jobs = append(jobs, job{stream, j.Unique, func() (opRecord, error) {
				return simOp(quickConfig(j.opInput), quickWindow)
			}})
		}
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan job)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				r, err := j.run()
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s op %d: %w", j.stream, j.i, err)
				}
				e.Ops[j.stream][j.i] = r.out
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// One outcome per line, streams in name order.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"seed\": %d, \"ops\": {", e.Seed)
	streams := make([]string, 0, len(e.Ops))
	for s := range e.Ops {
		streams = append(streams, s)
	}
	sort.Strings(streams)
	for i, s := range streams {
		if i > 0 {
			buf.WriteString(",")
		}
		fmt.Fprintf(&buf, "\n%q: [", s)
		for j, o := range e.Ops[s] {
			line, err := json.Marshal(o)
			if err != nil {
				return err
			}
			if j > 0 {
				buf.WriteString(",")
			}
			buf.WriteString("\n")
			buf.Write(line)
		}
		buf.WriteString("\n]")
	}
	buf.WriteString("\n}}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
