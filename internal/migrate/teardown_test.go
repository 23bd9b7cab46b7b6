package migrate

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/mgmt"
	"github.com/harmless-sdn/harmless/internal/openflow"
)

// failingDriver is a management session whose Close fails with err
// after closing.
type failingDriver struct {
	mgmt.Driver
	err error
}

func (d failingDriver) Close() error {
	_ = d.Driver.Close()
	return d.err
}

// failingConn is a controller transport whose Close fails with err
// after closing.
type failingConn struct {
	net.Conn
	err error
}

func (c failingConn) Close() error {
	_ = c.Conn.Close()
	return c.err
}

// nopDatapath serves the switch side of a controller pair: the channel
// set answers the handshake and role requests itself.
type nopDatapath struct{}

func (nopDatapath) Features() openflow.FeaturesReply               { return openflow.FeaturesReply{DatapathID: 1} }
func (nopDatapath) Handle(*controlplane.Channel, openflow.Message) {}

// TestExecutorCloseReportsTeardownErrors: every teardown failure of a
// rig — each controller session's transport and the management
// session — reaches the error Executor.Close returns, under the rig's
// name.
func TestExecutorCloseReportsTeardownErrors(t *testing.T) {
	x, err := NewExecutor(Spec{Name: "teardown", Seed: 1, Switches: []SwitchSpec{{Name: "alpha", Ports: 3, Demand: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	errMaster, errSlave, errDriver := errors.New("master transport"), errors.New("slave transport"), errors.New("cli session")
	set := controlplane.NewChannelSet(nopDatapath{}, controlplane.Config{EchoInterval: -1})
	defer set.Close()
	swM, ctrlM := net.Pipe()
	swS, ctrlS := net.Pipe()
	set.Attach(swM)
	set.Attach(swS)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r := x.rigByName["alpha"]
	r.ctrl, err = controlplane.ConnectPair(ctx, failingConn{ctrlM, errMaster}, failingConn{ctrlS, errSlave},
		controlplane.Config{EchoInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	r.driver = failingDriver{r.driver, errDriver}

	err = x.Close()
	for _, want := range []error{errMaster, errSlave, errDriver} {
		if !errors.Is(err, want) {
			t.Errorf("Close() = %v, missing %v", err, want)
		}
	}
	if err != nil && !strings.Contains(err.Error(), "closing alpha") {
		t.Errorf("Close() = %v, does not name the rig", err)
	}
}
