package netem

// CoarseTick is the refresh period of the coarse real-clock reading.
const CoarseTick = coarseTick

// CoarseArmed reports whether the coarse reading's timer is pending.
func CoarseArmed() bool { return coarse.fresh.Load() }
