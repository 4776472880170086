package main

// reference maps workload → seed → digest of the simulated statistics at
// the workload's full session count, for the default and held-out seeds.
// A change that alters any simulated statistic must record new digests and
// say why.
var reference = map[string]map[uint64]string{
	"paper6":    {defaultSeed: "fab82047c8881949", heldOutSeed: "8d2714ebe3937c70"},
	"fleet100k": {defaultSeed: "73e9e91600e5f462", heldOutSeed: "5f1bec7918fb91c8"},
	"churn10k":  {defaultSeed: "74d8b420c2a4e776", heldOutSeed: "3b165d006d2e4fbc"},
	"local6":    {defaultSeed: "f5fee3d920b2d42d", heldOutSeed: "92780d2b94950709"},
}
