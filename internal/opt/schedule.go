package opt

import "math"

// Schedule maps an epoch index to a learning rate.
type Schedule interface {
	// LRAt returns the learning rate for the given zero-based epoch.
	LRAt(epoch int) float64
	// Name identifies the schedule for logs.
	Name() string
}

// Cosine anneals the rate from Base to Floor over Total epochs.
type Cosine struct {
	Base  float64
	Floor float64
	Total int
}

// Name implements Schedule.
func (s Cosine) Name() string { return "cosine" }

// LRAt implements Schedule.
func (s Cosine) LRAt(epoch int) float64 {
	if s.Total <= 1 {
		return s.Base
	}
	if epoch >= s.Total {
		return s.Floor
	}
	frac := float64(epoch) / float64(s.Total-1)
	return s.Floor + 0.5*(s.Base-s.Floor)*(1+math.Cos(math.Pi*frac))
}
