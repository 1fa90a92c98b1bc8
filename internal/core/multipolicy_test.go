package core

import (
	"context"
	"fmt"
	"testing"

	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// policyCase enumerates the interval-study grid the differential tests pin:
// both Section 6 applications with their candidate size pairs.
var policyCases = []struct {
	app   string
	sizes []int
}{
	{"turb3d", []int{64, 128}},
	{"vortex", []int{16, 64}},
}

// TestMultiPolicyTransitionCosts is the transition-cost accounting gate: for
// every policy × application × switch penalty, the one-pass replay
// (RunPolicyStudy: family replay for fixed policies, the lockstep Race
// engine for stateful ones) must charge the exact same reconfiguration
// costs — drain stalls at the old clock, switch penalty at the old period —
// as RunQueue over a private QueueMachine. Equality is exact float64
// equality on every aggregate, including TimeNS (where a mischarged penalty
// would surface even when TPI rounds identically). Every application runs
// one of the Section 6 size pairs, alternating.
func TestMultiPolicyTransitionCosts(t *testing.T) {
	ctx := context.Background()
	intervals, n := int64(40), int64(2000)
	// Cold stores and families at the start; each application then builds
	// its own family (the key includes the app) and its penalties share it,
	// as the experiment drivers do.
	trace.Reset()
	ResetPolicyFamilies()
	for ai, b := range queueApps() {
		sizes := policyCases[ai%len(policyCases)].sizes
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, pen := range []int{-1, 0, 50, 200} {
				policies := func() []Policy {
					return []Policy{
						FixedPolicy{Config: 0},
						FixedPolicy{Config: 1},
						&IntervalPolicy{Configs: []int{0, 1}},
						&HysteresisPolicy{Configs: []int{0, 1}},
						&PIDPolicy{Configs: []int{0, 1}},
						&SlopeBanditPolicy{Configs: []int{0, 1}},
						&ProfileThenCommitPolicy{Configs: []int{0, 1}},
					}
				}
				// Policies are stateful: build fresh instances for each path.
				onePols, directPols := policies(), policies()
				for pi := range onePols {
					name := fmt.Sprintf("%s%v/pen=%d/%s", b.Name, sizes, pen, onePols[pi].Name())
					one, err := RunPolicyStudy(ctx, b, 1998, sizes, onePols[pi], intervals, n, pen, tech.Micron018)
					if err != nil {
						t.Fatalf("%s onepass: %v", name, err)
					}
					direct := RunQueue(directQueueMachine(t, b, 1998, sizes, 0, pen), directPols[pi], intervals, n, false)
					if one.Policy != direct.Policy || one.Instrs != direct.Instrs || one.TimeNS != direct.TimeNS ||
						one.TPI != direct.TPI || one.Switches != direct.Switches {
						t.Errorf("%s: replay diverged from direct simulation\n onepass: %+v\n direct:  %+v", name, one, direct)
					}
				}
			}
		})
	}
}

// TestMultiPolicyRaceLockstep pins the multi-column engine itself: racing
// several policies in ONE MultiCore pass must give each column the exact
// result of its own private policy-driven machine — member cores consume
// the shared stream and resize mid-run without perturbing each other.
func TestMultiPolicyRaceLockstep(t *testing.T) {
	ctx := context.Background()
	intervals, n := int64(30), int64(2000)
	for _, tc := range policyCases {
		b := workload.MustByName(tc.app)
		trace.Reset()
		ResetPolicyFamilies()
		mp, err := NewMultiPolicy(b, 1998, tc.sizes, n, 50, tech.Micron018)
		if err != nil {
			t.Fatalf("%s: NewMultiPolicy: %v", tc.app, err)
		}
		specs := []PolicySpec{
			{Policy: &IntervalPolicy{Configs: []int{0, 1}}, Penalty: 50},
			{Policy: FixedPolicy{Config: 1}, Penalty: 50},
			{Policy: &IntervalPolicy{Configs: []int{0, 1}, ConfidenceMax: 3}, Penalty: 50},
			{Policy: &HysteresisPolicy{Configs: []int{0, 1}}, Penalty: 50},
			{Policy: &PIDPolicy{Configs: []int{0, 1}}, Penalty: 50},
			{Policy: &SlopeBanditPolicy{Configs: []int{0, 1}}, Penalty: 50},
			{Policy: &ProfileThenCommitPolicy{Configs: []int{0, 1}}, Penalty: 50},
		}
		raced, err := mp.Race(ctx, specs, intervals)
		if err != nil {
			t.Fatalf("%s: Race: %v", tc.app, err)
		}
		direct := []Policy{
			&IntervalPolicy{Configs: []int{0, 1}},
			FixedPolicy{Config: 1},
			&IntervalPolicy{Configs: []int{0, 1}, ConfidenceMax: 3},
			&HysteresisPolicy{Configs: []int{0, 1}},
			&PIDPolicy{Configs: []int{0, 1}},
			&SlopeBanditPolicy{Configs: []int{0, 1}},
			&ProfileThenCommitPolicy{Configs: []int{0, 1}},
		}
		for j, p := range direct {
			leg := RunQueue(directQueueMachine(t, b, 1998, tc.sizes, 0, 50), p, intervals, n, false)
			r := raced[j]
			if r.Policy != leg.Policy || r.Instrs != leg.Instrs || r.TimeNS != leg.TimeNS ||
				r.TPI != leg.TPI || r.Switches != leg.Switches {
				t.Errorf("%s column %d (%s): race diverged from private machine\n race:   %+v\n direct: %+v",
					tc.app, j, p.Name(), r, leg)
			}
		}
	}
}

// TestIntervalFamilyExtension pins extension equivalence: traces read at a
// short horizon and then re-read at a longer one must agree on the common
// prefix, and the extended family must still match a cold full-length pass.
func TestIntervalFamilyExtension(t *testing.T) {
	ctx := context.Background()
	b := workload.MustByName("turb3d")
	sizes := []int{64, 128}
	n := int64(2000)
	trace.Reset()
	ResetPolicyFamilies()
	short, err := ProfileQueueTraces(ctx, b, 1998, sizes, 10, n, tech.Micron018)
	if err != nil {
		t.Fatalf("short: %v", err)
	}
	long, err := ProfileQueueTraces(ctx, b, 1998, sizes, 25, n, tech.Micron018)
	if err != nil {
		t.Fatalf("long: %v", err)
	}
	trace.Reset()
	ResetPolicyFamilies()
	cold, err := ProfileQueueTraces(ctx, b, 1998, sizes, 25, n, tech.Micron018)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	for i := range sizes {
		for iv := 0; iv < 10; iv++ {
			if short[i][iv] != long[i][iv] {
				t.Errorf("size %d interval %d: prefix changed under extension: %v != %v", sizes[i], iv, short[i][iv], long[i][iv])
			}
		}
		for iv := 0; iv < 25; iv++ {
			if long[i][iv] != cold[i][iv] {
				t.Errorf("size %d interval %d: extended family %v != cold pass %v", sizes[i], iv, long[i][iv], cold[i][iv])
			}
		}
	}
}

// TestRunPolicyStudyErrors locks validation on the replay paths.
func TestRunPolicyStudyErrors(t *testing.T) {
	ctx := context.Background()
	b := workload.MustByName("gcc")
	trace.Reset()
	ResetPolicyFamilies()
	defer func() {
		trace.Reset()
		ResetPolicyFamilies()
	}()
	if _, err := RunPolicyStudy(ctx, b, 1, nil, FixedPolicy{}, 1, 2000, -1, tech.Micron018); err == nil {
		t.Error("empty size list accepted")
	}
	if _, err := RunPolicyStudy(ctx, b, 1, []int{16, 64}, FixedPolicy{Config: 2}, 1, 2000, -1, tech.Micron018); err == nil {
		t.Error("out-of-range fixed config accepted")
	}
	mp, err := NewMultiPolicy(b, 1, []int{16, 64}, 2000, -1, tech.Micron018)
	if err != nil {
		t.Fatalf("NewMultiPolicy: %v", err)
	}
	if _, err := mp.Race(ctx, nil, 1); err == nil {
		t.Error("empty spec list accepted")
	}
	if _, err := mp.Race(ctx, []PolicySpec{{Policy: FixedPolicy{Config: 9}, Penalty: -1}}, 1); err == nil {
		t.Error("policy selecting out-of-range config accepted")
	}
}
