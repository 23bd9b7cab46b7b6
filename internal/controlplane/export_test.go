package controlplane

import (
	"context"
	"fmt"

	"github.com/harmless-sdn/harmless/internal/openflow"
)

// Done is closed when the channel terminates for good: Close was
// called, or an attached transport died (dial-mode channels never
// finish on their own — they redial).
func (c *Channel) Done() <-chan struct{} { return c.done }

// Master returns the channel currently holding the MASTER role (nil if
// none).
func (s *ChannelSet) Master() *Channel {
	for _, c := range s.Channels() {
		if c.Role() == openflow.RoleMaster {
			return c
		}
	}
	return nil
}

// GenerationID returns the highest master-election epoch seen, and
// whether any has been seen at all.
func (s *ChannelSet) GenerationID() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generation, s.genValid
}

// SetAsyncConfig replaces the connection's async filter masks.
func (c *Controller) SetAsyncConfig(cfg openflow.AsyncConfig) error {
	return c.conn.Send(&openflow.SetAsync{AsyncConfig: cfg})
}

// AsyncConfig fetches the connection's async filter masks.
func (c *Controller) AsyncConfig(ctx context.Context) (openflow.AsyncConfig, error) {
	resp, err := c.Request(ctx, &openflow.GetAsyncRequest{})
	if err != nil {
		return openflow.AsyncConfig{}, err
	}
	ar, ok := resp.(*openflow.GetAsyncReply)
	if !ok {
		return openflow.AsyncConfig{}, fmt.Errorf("controlplane: unexpected %T to get-async request", resp)
	}
	return ar.AsyncConfig, nil
}
