package core

import "math/rand"

// SelectionOrder chooses how the page-selection routine orders candidate
// pages. The paper argues for ascending counters — "pages with many
// already indexed tuples are more valuable for the Index Buffer" (§III)
// because they buy a skippable page for fewer entries. RandomOrder is the
// stochastic escape the robustness runner selects.
type SelectionOrder int

const (
	// AscendingCounter is the paper's policy: cheapest pages first.
	AscendingCounter SelectionOrder = iota
	// RandomOrder shuffles the candidates.
	RandomOrder
)

// String renders the policy name.
func (s SelectionOrder) String() string {
	switch s {
	case AscendingCounter:
		return "ascending"
	case RandomOrder:
		return "random"
	default:
		return "unknown"
	}
}

// Config holds the tunables of the Index Buffer Space. The names follow
// the paper's symbols.
type Config struct {
	// IMax (paper I^MAX) caps the pages indexed during one table scan.
	// The paper's experiments use 5,000 and 10,000. Zero means
	// DefaultIMax.
	IMax int

	// P is the maximum number of table pages one Index Buffer partition
	// covers; displacement drops whole partitions (paper §IV, Fig. 5).
	// The paper's experiments use 10,000. Zero means DefaultP.
	P int

	// K is the LRU-K history depth. Zero means DefaultK.
	K int

	// SpaceLimit (paper L) bounds the total number of entries across all
	// Index Buffers. Zero means unlimited — the paper's experiment 1.
	SpaceLimit int

	// Selection orders page candidates during Algorithm 2; the zero
	// value is the paper's ascending-counter policy.
	Selection SelectionOrder

	// Seed drives every random stream of the Space (victim selection,
	// RandomOrder shuffling, displacement jitter) per the repo seeding
	// convention: one explicit seed, sub-streams derived by fixed
	// offsets so one stream's consumption never perturbs another. Zero
	// means DefaultSeed, keeping experiments reproducible by default.
	Seed int64

	// DisplacementJitter is the probability, per victim-partition pick,
	// that stage 2 of Algorithm 2's displacement chooses a uniformly
	// random droppable partition instead of the deterministic
	// incomplete-first order. Nonzero values break the adversarial
	// starvation cycle where a workload keyed on displacement events
	// kills the same frontier partition every round (cf. stochastic
	// cracking); 0 (the default) is the paper's deterministic policy.
	// Values are clamped to [0, 1].
	DisplacementJitter float64

	// victimRand, selRand and jitterRand are the Space's random streams,
	// populated by withDefaults: the stage-1 victim draw, the
	// RandomOrder candidate shuffle and the displacement jitter. Each
	// derives from Seed separately, so victim selection replays bit for
	// bit whether or not the stochastic policies consume randomness.
	victimRand *rand.Rand
	selRand    *rand.Rand
	jitterRand *rand.Rand
}

// Defaults for Config fields left zero.
const (
	DefaultIMax = 5000
	DefaultP    = 10000
	DefaultK    = 2
	// DefaultSeed seeds the Space's random streams when Config.Seed is
	// zero; the victim stream is then rand.NewSource(1).
	DefaultSeed = 1
)

// Fixed offsets deriving the Space's independent sub-streams from one
// seed (the repo seeding convention; see internal/workload's package
// doc). Distinct primes keep the derived seeds distinct for any base.
const (
	seedOffsetSelection = 7919
	seedOffsetJitter    = 104729
)

// withDefaults returns a copy of c with zero fields replaced by defaults
// and the derived random sub-streams populated.
func (c Config) withDefaults() Config {
	if c.IMax <= 0 {
		c.IMax = DefaultIMax
	}
	if c.P <= 0 {
		c.P = DefaultP
	}
	if c.K <= 0 {
		c.K = DefaultK
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.DisplacementJitter < 0 {
		c.DisplacementJitter = 0
	} else if c.DisplacementJitter > 1 {
		c.DisplacementJitter = 1
	}
	c.victimRand = rand.New(rand.NewSource(c.Seed))
	c.selRand = rand.New(rand.NewSource(c.Seed + seedOffsetSelection))
	c.jitterRand = rand.New(rand.NewSource(c.Seed + seedOffsetJitter))
	return c
}
