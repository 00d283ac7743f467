package main

import "repro/internal/core"

// splitMix is the SplitMix64 generator: every benchmark input derives from
// the workload seed through it, so one seed always yields one input
// sequence.
type splitMix struct{ s uint64 }

func (r *splitMix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// simSeed draws a simulator seed: positive and below 2^31, so it survives
// any JSON round trip exactly.
func (r *splitMix) simSeed() uint64 { return r.next()>>33 + 1 }

// Per-workload salts keep the workloads' input streams independent for
// the same --seed.
const (
	saltSimLong  = 0x51A1
	saltForecast = 0xF0CA
	saltService  = 0x5E4C
)

// simMixes are the mix numbers (1-based, as the CLIs print them) the
// library workloads cycle through.
var simMixes = []int{1, 4, 6, 8}

// opInput is one simulation's input: the mix number, the simulator seed
// and the insertion policy.
type opInput struct {
	Mix    int
	Seed   uint64
	Policy string
}

// inputStream yields a workload's operation inputs in order. The first
// value drawn is the set-up warm-up operation's; every later one is a
// timed operation with a fresh simulator seed.
type inputStream struct {
	rng  splitMix
	kind string
	n    int
}

func newInputStream(kind string, seed uint64) *inputStream {
	salt := map[string]uint64{simLong: saltSimLong, forecastAging: saltForecast}[kind]
	return &inputStream{rng: splitMix{seed ^ salt<<48}, kind: kind}
}

// next returns the next input: sim-long cycles mixes 1, 4, 6, 8 under
// CP_SD; forecast-aging alternates BH and CP_SD on mix 1.
func (s *inputStream) next() opInput {
	i := s.n
	s.n++
	seed := s.rng.simSeed()
	if s.kind == simLong {
		return opInput{Mix: simMixes[i%len(simMixes)], Seed: seed, Policy: "CP_SD"}
	}
	return opInput{Mix: 1, Seed: seed, Policy: []string{"BH", "CP_SD"}[i%2]}
}

// servicePolicies is the policy axis each service client walks, fastest
// varying.
var servicePolicies = []string{"BH", "LHybrid", "CP_SD"}

// jobInput is one service request: a simulation input, and for a repeat
// the index (into the client's request list) of the earlier request it
// repeats.
type jobInput struct {
	opInput
	Unique   int // index among the client's distinct requests; -1 for repeats
	RepeatOf int // request index repeated; -1 for distinct requests
}

// jobStream yields one service client's requests: a seed × policy grid
// with the policy varying fastest, where every fourth request repeats one
// of the three distinct requests just before it (a result-cache hit).
type jobStream struct {
	rng     splitMix
	n       int
	uniques int
	seed    uint64 // simulator seed of the current grid row
	recent  []int  // request indexes of the last distinct requests
}

func newJobStream(seed uint64, client int) *jobStream {
	return &jobStream{rng: splitMix{seed ^ saltService<<48 ^ uint64(client+1)<<40}}
}

// serviceWarmup returns the set-up job. Its seed has bit 31 set, which no
// timed request's seed has, so the warm-up never warms the result cache.
func serviceWarmup(seed uint64) opInput {
	r := splitMix{seed ^ saltService<<48}
	return opInput{Mix: 1, Seed: r.simSeed() | 1<<31, Policy: "CP_SD"}
}

func (s *jobStream) next() jobInput {
	i := s.n
	s.n++
	if i%4 == 3 {
		pick := s.recent[s.rng.next()%uint64(len(s.recent))]
		return jobInput{RepeatOf: pick, Unique: -1}
	}
	u := s.uniques
	s.uniques++
	if u%len(servicePolicies) == 0 {
		s.seed = s.rng.simSeed()
	}
	row := u / len(servicePolicies)
	in := opInput{Mix: simMixes[row%len(simMixes)], Seed: s.seed, Policy: servicePolicies[u%len(servicePolicies)]}
	s.recent = append(s.recent, i)
	if len(s.recent) > 3 {
		s.recent = s.recent[1:]
	}
	return jobInput{opInput: in, Unique: u, RepeatOf: -1}
}

// Simulated windows in cycles, and the forecast's capacity step and stop.
const (
	simLongWarmup  = 2_000_000
	simLongMeasure = 10_000_000
	quickWarmup    = 300_000
	quickMeasure   = 2_000_000
	forecastStep   = 0.05
	forecastStop   = 0.5
)

// simLongConfig is the sim-long operation: DefaultConfig geometry (1024
// sets, 4 SRAM + 12 NVM ways).
func simLongConfig(in opInput) core.Config {
	c := core.DefaultConfig()
	c.MixID = in.Mix - 1
	c.Seed = in.Seed
	c.PolicyName = in.Policy
	return c
}

// quickConfig is the forecast-aging and service-quick geometry: 256 sets,
// scale 0.15, 64 KB L2.
func quickConfig(in opInput) core.Config {
	c := core.QuickConfig()
	c.MixID = in.Mix - 1
	c.Seed = in.Seed
	c.PolicyName = in.Policy
	return c
}
