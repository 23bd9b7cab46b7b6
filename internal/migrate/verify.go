package migrate

// checkConservation is the zero-loss invariant, evaluated after every
// traffic round: all links are synchronous and the round ran inside one
// virtual-time callback, so the fabric is quiescent and every datagram
// sent must already have been received. It runs once per tick for the
// whole campaign and must not allocate.
func (x *Executor) checkConservation() bool {
	var sent, received, errs uint64
	for _, r := range x.rigs {
		sent += r.sent
		received += r.received
		errs += r.sendErrs
	}
	return errs == 0 && sent == received
}

// recordConservationFailure is the cold path: note the first loss with
// its virtual timestamp (once — a conservation breach never heals, so
// repeating it every subsequent tick would only bloat the report).
func (x *Executor) recordConservationFailure() {
	if x.lossNoted {
		return
	}
	x.lossNoted = true
	var sent, received uint64
	for _, r := range x.rigs {
		sent += r.sent
		received += r.received
	}
	x.failf("traffic conservation violated at %v: sent %d, received %d", x.eng.Elapsed(), sent, received)
}
