package parallel

import "sync"

// The decode engine: deterministic fan-out/fold primitives for the
// decodes whose units are large enough to pay for a goroutine each —
// the sparsifier grid's per-cell extraction and the remote
// coordinator's worker-state decode and fold. (A Borůvka component or
// a spanner terminal costs microseconds, so those decodes run on the
// calling goroutine.) The primitives keep the output bit-identical to
// the serial pass:
//
//   - results are placed by index (MapOpts), never by completion
//     order, so callers can apply them in the serial iteration order;
//   - state folds pair adjacent items (TreeMerge); every Merge in this
//     repository is an exact commutative group operation (int64 and
//     GF(2^61−1) addition), so the tree fold equals the linear fold
//     bit for bit while running its levels concurrently.

// MapOpts runs fn(0..n-1) on up to the policy's workers and collects
// the results indexed by i. Placement is deterministic (slot i holds
// fn(i)'s result regardless of scheduling); the first error by index
// is returned, matching a serial loop's failure.
func MapOpts[T any](p *Policy, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachOpts(p, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEachOpts runs fn(0..n-1) on up to the policy's workers and waits
// for all of them. With one worker the indices run inline, in order,
// with no goroutine machinery — but with the same contract as the
// concurrent path: every index runs even after a failure (only
// cancellation skips fn, recording the context's error), and the first
// error by index is returned, so side-effecting callbacks leave
// identical state behind at any worker count.
func ForEachOpts(p *Policy, n int, fn func(i int) error) error {
	if err := p.validate(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	workers := min(p.workers, n)
	if workers == 1 {
		var first error
		for i := 0; i < n; i++ {
			err := p.ctx.Err()
			if err == nil {
				err = fn(i)
			}
			if err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := p.ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// TreeMerge folds items into items[0] with a parallel binary tree:
// each level merges items[i] ← items[i+stride] for stride-aligned i on
// the policy's workers, doubling the stride until one state remains.
// The pairing is a fixed function of len(items), and every merge in
// this repository is an exact commutative group operation, so the
// result is bit-identical to the serial left fold — in ⌈log2 n⌉
// concurrent levels instead of n−1 sequential merges. Items must not
// be aliased; merged-away entries are left in place but must not be
// reused.
func TreeMerge[S any](p *Policy, items []S, merge func(dst, src S) error) (S, error) {
	var zero S
	if err := p.validate(); err != nil {
		return zero, err
	}
	if len(items) == 0 {
		return zero, nil
	}
	for stride := 1; stride < len(items); stride *= 2 {
		var pairs []int
		for i := 0; i+stride < len(items); i += 2 * stride {
			pairs = append(pairs, i)
		}
		err := ForEachOpts(p, len(pairs), func(k int) error {
			i := pairs[k]
			return merge(items[i], items[i+stride])
		})
		if err != nil {
			return zero, err
		}
	}
	return items[0], nil
}
