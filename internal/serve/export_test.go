package serve

import (
	"context"

	"planardfs/internal/chaos"
	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
)

// BuildDecomp exposes the cold build path to the external cross-caller
// identity test, which also imports the facade (and so cannot live in
// this package).
func BuildDecomp(ctx context.Context, in *gen.Instance, plan *chaos.Plan) (*Decomp, error) {
	return buildDecomp(ctx, in, pipeline.Options{Plan: plan})
}
