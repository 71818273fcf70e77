package main

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/sim"
)

// Campaign scale: the paper's Figure 13 RAJAPerf configuration table at
// campaignTrials trials per configuration, split into storeSegments
// equal segments in generation order.
const (
	campaignTrials = 40
	storeSegments  = 8
)

// campaignRows returns Figure 13's rows at trials trials each.
func campaignRows(trials int) []sim.RajaRow {
	rows := sim.Figure13Rows()
	for i := range rows {
		rows[i].Trials = trials
	}
	return rows
}

// campaign generates the Figure 13 campaign. The seed is the only input.
func campaign(seed int64) ([]*profile.Profile, error) {
	var out []*profile.Profile
	for _, row := range campaignRows(campaignTrials) {
		ps, err := sim.RajaEnsemble(row, seed)
		if err != nil {
			return nil, fmt.Errorf("generate campaign: %w", err)
		}
		out = append(out, ps...)
	}
	return out, nil
}

// encodedCampaign generates the campaign and encodes it.
func encodedCampaign(seed int64) ([][]byte, error) {
	ps, err := campaign(seed)
	if err != nil {
		return nil, err
	}
	return encode(ps)
}

// encode renders profiles as JSON. The harness keeps its inputs in this
// form between uses: byte slices hold no pointers, so they add nothing
// to the garbage collector's marking work while the program is measured.
func encode(ps []*profile.Profile) ([][]byte, error) {
	out := make([][]byte, len(ps))
	for i, p := range ps {
		b, err := p.MarshalBytes()
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// decode parses encoded profiles.
func decode(raw [][]byte) ([]*profile.Profile, error) {
	out := make([]*profile.Profile, len(raw))
	for i, b := range raw {
		p, err := profile.FromBytes(b)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// split cuts ps into n contiguous, near-equal parts.
func split(ps []*profile.Profile, n int) [][]*profile.Profile {
	out := make([][]*profile.Profile, n)
	for i := range out {
		out[i] = ps[i*len(ps)/n : (i+1)*len(ps)/n]
	}
	return out
}

// ingestTrialBase is the first trial number of ingested profiles; the
// post-run check finds them by it.
const ingestTrialBase = 100000

// ingestStream generates n profiles that are new to the campaign: its
// configurations, cycled, at trial numbers past the campaign's.
func ingestStream(seed int64, n int) ([]*profile.Profile, error) {
	var configs []sim.RajaConfig
	for _, row := range campaignRows(1) {
		for _, size := range row.Sizes {
			base := sim.RajaConfig{
				Cluster: row.Cluster, Variant: row.Variant, Tool: sim.ToolTiming,
				ProblemSize: size, Compiler: row.Compiler, OmpThreads: row.OmpThreads, Seed: seed,
			}
			if row.Variant == sim.VariantCUDA {
				for _, bs := range row.BlockSizes {
					cfg := base
					cfg.Tool, cfg.Optimization, cfg.CudaCompiler, cfg.BlockSize = sim.ToolGPU, row.Opts[0], row.CudaCompiler, bs
					configs = append(configs, cfg)
				}
				continue
			}
			for _, opt := range row.Opts {
				cfg := base
				cfg.Optimization = opt
				configs = append(configs, cfg)
			}
		}
	}
	out := make([]*profile.Profile, n)
	for i := range out {
		cfg := configs[i%len(configs)]
		cfg.Trial = ingestTrialBase + i
		p, err := sim.GenerateRaja(cfg)
		if err != nil {
			return nil, fmt.Errorf("generate ingest profile %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}
