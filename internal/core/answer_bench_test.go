package core_test

import (
	"sync"
	"testing"

	"rdfcube/internal/core"
	"rdfcube/internal/datagen"
	"rdfcube/internal/rdfs"
	"rdfcube/internal/store"
)

var (
	answerOnce sync.Once
	answerInst *store.Store
	answerErr  error
)

// bloggerInstance builds the 12,000-blogger, 3-dimension AnS instance
// once per test binary.
func bloggerInstance(b *testing.B) *store.Store {
	answerOnce.Do(func() {
		cfg := datagen.DefaultBloggerConfig()
		cfg.Bloggers, cfg.Dimensions = 12000, 3
		base, err := cfg.Generate()
		if err != nil {
			answerErr = err
			return
		}
		rdfs.Saturate(base)
		base.Freeze()
		schema, err := datagen.BloggerSchema(cfg.Dimensions)
		if err != nil {
			answerErr = err
			return
		}
		answerInst, answerErr = schema.Materialize(base)
		if answerErr == nil && !answerInst.IsFrozen() {
			answerInst.Freeze()
		}
	})
	if answerErr != nil {
		b.Fatal(answerErr)
	}
	return answerInst
}

// BenchmarkAnswerDirect is a direct ans(Q) = γ(π(c_Σ ⋈ m_k)) over the
// 12,000-blogger instance with 3 dimensions: BGP evaluation of both
// queries plus the whole algebra above it. Run with -benchmem.
func BenchmarkAnswerDirect(b *testing.B) {
	inst := bloggerInstance(b)
	for _, aggName := range []string{"count", "sum"} {
		b.Run(aggName, func(b *testing.B) {
			q, err := datagen.BloggerQuery(3, aggName)
			if err != nil {
				b.Fatal(err)
			}
			ev := core.NewEvaluator(inst)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Answer(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
