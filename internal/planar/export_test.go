package planar

// RestrictArena exposes the pooled RestrictTo scratch to the external tests.
type RestrictArena = restrictArena

// StaleRestrictArena returns an arena sized to n vertices and m edges whose
// stamps all hold the stale epoch value stale, currently at epoch.
func StaleRestrictArena(n, m int, epoch, stale int32) *RestrictArena {
	a := &restrictArena{
		epoch:   epoch,
		stamp:   make([]int32, n),
		seen:    make([]int32, n),
		subOf:   make([]int32, n),
		subEdge: make([]int32, m),
	}
	for v := range a.stamp {
		a.stamp[v], a.seen[v] = stale, stale
	}
	return a
}

// Epoch returns the arena's current epoch.
func (a *RestrictArena) Epoch() int32 { return a.epoch }

// RestrictWith is RestrictTo on arena a (a pooled one if nil), also
// reporting which rule found the outer sub-face: 0 none, 1 (a) touch,
// 2 (b) boundary, 3 (c) search.
func (emb *Embedding) RestrictWith(a *RestrictArena, vs []int, outerFace int) (*Restriction, int, error) {
	if a == nil {
		a = restrictPool.Get().(*restrictArena)
		defer restrictPool.Put(a)
	}
	res, how, err := emb.restrictWith(a, vs, outerFace)
	return res, int(how), err
}
