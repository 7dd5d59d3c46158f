package sepengine

import (
	"planardfs/internal/dist"
	"planardfs/internal/separator"
	"planardfs/internal/weights"
)

// theorem1Engine wraps the paper's constructive Theorem 1 algorithm
// (internal/separator): the deterministic fundamental-face weight
// machinery with augmentations, hidden fallbacks and virtual closures.
// It is the registry default and the only engine with a balance guarantee
// on every planar configuration.
type theorem1Engine struct{}

func (theorem1Engine) Name() string { return DefaultEngine }

func (theorem1Engine) FindCycleSeparator(cfg *weights.Config) (*Result, error) {
	sep, err := separator.Find(cfg)
	if err != nil {
		return nil, err
	}
	return finish(cfg, DefaultEngine, sep, dist.SeparatorOps(cfg.G.N()))
}

func init() { Register(theorem1Engine{}) }
