package controlplane

import (
	"context"
	"errors"
	"fmt"
	"io"

	"github.com/harmless-sdn/harmless/internal/openflow"
)

// Pair is a master/standby pair of controller sessions to one switch:
// the redundant bring-up and the takeover sequence, written once.
type Pair struct {
	Master *Controller
	Slave  *Controller // nil once it has been promoted
	gen    uint64
}

// Elect makes master MASTER and slave SLAVE at generation 1.
func Elect(ctx context.Context, master, slave *Controller) (*Pair, error) {
	p := &Pair{Master: master, Slave: slave, gen: 1}
	if _, _, err := master.RequestRole(ctx, openflow.RoleMaster, p.gen); err != nil {
		return nil, fmt.Errorf("controlplane: master role: %w", err)
	}
	if _, _, err := slave.RequestRole(ctx, openflow.RoleSlave, p.gen); err != nil {
		return nil, fmt.Errorf("controlplane: slave role: %w", err)
	}
	return p, nil
}

// ConnectPair connects one client per transport, master first, and
// elects them. On error both transports are closed.
func ConnectPair(ctx context.Context, master, slave io.ReadWriteCloser, cfg Config) (*Pair, error) {
	m, err := Connect(master, cfg, Events{})
	if err != nil {
		slave.Close()
		return nil, fmt.Errorf("master: %w", err)
	}
	s, err := Connect(slave, cfg, Events{})
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("slave: %w", err)
	}
	p, err := Elect(ctx, m, s)
	if err != nil {
		m.Close()
		s.Close()
	}
	return p, err
}

// Failover replaces a lost master: its session is closed (it may be
// dead already), the standby claims MASTER at the next generation and
// fences with a barrier, so on return it owns the datapath.
func (p *Pair) Failover(ctx context.Context) error {
	if p.Slave == nil {
		return fmt.Errorf("controlplane: no standby to promote")
	}
	p.Master.Close()
	p.gen++
	if _, _, err := p.Slave.RequestRole(ctx, openflow.RoleMaster, p.gen); err != nil {
		return fmt.Errorf("controlplane: promote: %w", err)
	}
	if err := p.Slave.AwaitBarrier(ctx); err != nil {
		return fmt.Errorf("controlplane: post-promote barrier: %w", err)
	}
	p.Master, p.Slave = p.Slave, nil
	return nil
}

// Close ends both sessions; the error joins their close failures.
func (p *Pair) Close() error {
	if p.Slave == nil {
		return p.Master.Close()
	}
	return errors.Join(p.Master.Close(), p.Slave.Close())
}
