package main

import (
	"time"

	"chiaroscuro"
	"chiaroscuro/internal/benchcfg"
	"chiaroscuro/internal/core"
	"chiaroscuro/internal/costmodel"
)

// coreLayer reports the engine's work counts and phase split from a
// core trace: crypto operations and decrypt traffic per participant,
// cache hit ratios, wall time and cycles per phase, and the p2p
// scheduler's message and cycle counts.
func coreLayer(m metricSet, ct *core.Trace, n int) {
	per := func(v float64) float64 { return v / float64(n) }
	ops := ct.Ops
	m.set("core.halvings_per_participant", "count", per(float64(ops.Halvings)))
	m.set("core.encrypts_per_participant", "count", per(float64(ops.Encrypts)))
	m.set("core.partial_decrypts_per_participant", "count", per(float64(ops.PartialDecrypts)))
	m.set("core.combines_per_participant", "count", per(float64(ops.Combines)))
	m.set("core.combine_ctx_hit_ratio", "ratio", ratio(float64(ops.CombineCtxHits), float64(ops.Combines)))
	m.set("core.partial_cache_hit_ratio", "ratio", ratio(float64(ops.PartialCacheHits), float64(ops.PartialCacheHits+ops.PartialDecrypts)))
	m.set("core.assign_s", "s", ct.Phases.AssignTime.Seconds())
	m.set("core.gossip_s", "s", ct.Phases.GossipTime.Seconds())
	m.set("core.decrypt_s", "s", ct.Phases.DecryptTime.Seconds())
	m.set("core.gossip_cycles", "count", float64(ct.Phases.GossipCycles))
	m.set("core.decrypt_cycles", "count", float64(ct.Phases.DecryptCycles))
	m.set("core.decrypt_requests_per_participant", "count", per(float64(ct.DecryptRequests)))
	m.set("core.decrypt_bytes_per_participant", "B", per(float64(ct.DecryptBytes)))
	m.set("p2p.messages_per_participant", "count", per(float64(ct.NetStats.MessagesSent)))
	m.set("p2p.cycles", "count", float64(ct.CyclesRun))
}

// profileReps is the repetition count of each timed operation in the
// Damgård–Jurik profile.
const profileReps = 32

// allocPopulation is the population of the allocation probes — the
// BENCH_scale.json HotPath/DecryptPhase population, with the same data
// and protocol seeds, so the two records stay comparable.
const allocPopulation = 512

// layerProbes measures the layers whose figures do not depend on the
// workload's input, so every traced run reports them: Damgård–Jurik
// per-operation times at sim-dj's modulus and quorum, and the gossip
// and decrypt allocations per cycle exactly as BENCH_scale.json
// measures them. It returns the crypto profile for the cost projection.
func layerProbes(m metricSet, tr *tracer, parent int) (*costmodel.CryptoProfile, error) {
	var prof *costmodel.CryptoProfile
	err := tr.do("costmodel.MeasureProfile", parent, func() error {
		var err error
		prof, err = costmodel.MeasureProfile(1024, 1, 64, 4, profileReps)
		return err
	})
	if err != nil {
		return nil, err
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	m.set("damgardjurik.halve_us", "us", us(prof.ScalarMul))
	m.set("damgardjurik.encrypt_us", "us", us(prof.FastEncrypt))
	m.set("damgardjurik.rerandomize_us", "us", us(prof.FastRerandomize))
	m.set("damgardjurik.add_us", "us", us(prof.Add))
	m.set("damgardjurik.partial_decrypt_us", "us", us(prof.FastPartialDecrypt))
	m.set("damgardjurik.combine_us", "us", us(prof.FastCombine))

	series, _, _, err := chiaroscuro.SyntheticCERErr(allocPopulation, benchcfg.ScaleDim, 3)
	if series, err = normalized(series, err); err != nil {
		return nil, err
	}
	const warm, measured = 25, 25
	err = tr.do("core.MeasureGossipAllocs", parent, func() error {
		rep, err := core.MeasureGossipAllocs(series, core.Params{
			K: 2, Epsilon: 50, Iterations: 1, Seed: 11,
			GossipRounds: warm + measured + 8, DecryptThreshold: 3,
		}, warm, measured)
		if err == nil {
			m.set("core.gossip_allocs_per_cycle", "count", rep.AllocsPerCycle)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	err = tr.do("core.MeasureDecryptAllocs", parent, func() error {
		rep, err := core.MeasureDecryptAllocs(series, core.Params{
			K: benchcfg.ScaleK, Epsilon: benchcfg.ScaleEpsilon,
			Iterations: benchcfg.ScaleIterations, Seed: 11,
			GossipRounds:     benchcfg.ScaleGossipRounds,
			DecryptThreshold: benchcfg.ScaleDecryptThreshold,
		})
		if err == nil {
			m.set("core.decrypt_allocs_per_cycle", "count", rep.AllocsPerCycle)
		}
		return err
	})
	return prof, err
}

// projectCPU is the Sec. III.B reconciliation: the run's operation
// counts priced at the measured per-operation times (every halving is
// followed by a rerandomization), against the CPU time the run actually
// took. It is reported, not gated.
func projectCPU(m metricSet, prof *costmodel.CryptoProfile, ops core.OpCounts, measured time.Duration) {
	projected := time.Duration(ops.Encrypts)*prof.FastEncrypt +
		time.Duration(ops.Halvings)*(prof.ScalarMul+prof.FastRerandomize) +
		time.Duration(ops.Adds)*prof.Add +
		time.Duration(ops.PartialDecrypts)*prof.FastPartialDecrypt +
		time.Duration(ops.Combines)*prof.FastCombine
	m.set("costmodel.projected_cpu_s", "s", projected.Seconds())
	m.set("costmodel.measured_cpu_s", "s", measured.Seconds())
	m.set("costmodel.cpu_prediction_ratio", "ratio", ratio(projected.Seconds(), measured.Seconds()))
}
