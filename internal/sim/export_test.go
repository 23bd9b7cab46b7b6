package sim

import "math/rand"

// Rand is the run's single PRNG stream. Deterministic use requires all
// draws to happen on the event loop goroutine in event order.
func (e *Engine) Rand() *rand.Rand { return e.rng }
