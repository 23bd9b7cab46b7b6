package harmless

import (
	"fmt"
	"time"

	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/softswitch"
)

// S4 is the assembled HARMLESS-S4 group node: the translator SS_1 and
// the controller-facing main switch SS_2, joined by one patch port per
// logical port (Fig. 1). Frames cross the patch ports as still-grouped
// batches dispatched iteratively off the softswitch worklist, so the
// SS_1 -> SS_2 hop adds no per-frame call depth: trunk rx vectors
// traverse the whole group node one batch at a time.
type S4 struct {
	Plan *Plan
	SS1  *softswitch.Switch
	SS2  *softswitch.Switch

	agent *softswitch.Agent
}

// S4Config parameterizes BuildS4.
type S4Config struct {
	// Name prefixes the switch names (default "harmless").
	Name string
	// DatapathID for SS_2, the identity the controller sees. SS_1
	// gets DatapathID+1 (it never talks to the controller).
	DatapathID uint64
	// Clock injection for tests.
	Clock netem.Clock
}

// BuildS4 instantiates SS_1 and SS_2, wires the patch ports for every
// logical port of the plan, and installs the translator program.
// The caller attaches the trunk with AttachTrunk and connects the
// controller with ConnectControllers.
func BuildS4(plan *Plan, cfg S4Config) (*S4, error) {
	if cfg.Name == "" {
		cfg.Name = "harmless"
	}
	if cfg.DatapathID == 0 {
		cfg.DatapathID = 0x00004e554c4c0001 // arbitrary non-zero default
	}
	var opts []softswitch.Option
	if cfg.Clock != nil {
		opts = append(opts, softswitch.WithClock(cfg.Clock))
	}
	s4 := &S4{
		Plan: plan,
		SS1:  softswitch.New(cfg.Name+"-ss1", cfg.DatapathID+1, opts...),
		SS2:  softswitch.New(cfg.Name+"-ss2", cfg.DatapathID, opts...),
	}
	// One patch pair per logical port: SS_1 side numbered
	// SS1PatchBase+L, SS_2 side numbered L (data-plane transparency:
	// SS_2 port numbers equal legacy access port numbers).
	for _, l := range plan.LogicalPorts() {
		softswitch.ConnectPatch(s4.SS1, SS1PatchBase+l, s4.SS2, l)
	}
	if err := InstallTranslator(s4.SS1, plan); err != nil {
		return nil, err
	}
	return s4, nil
}

// AttachTrunk binds SS_1's trunk uplink to one end of the netem link
// whose other end is the legacy switch's trunk port.
func (s *S4) AttachTrunk(p *netem.Port) {
	s.SS1.AttachNetPort(SS1TrunkPort, "trunk", p)
}

// ConnectControllers brings SS_2's control plane up towards every
// endpoint: Addr endpoints are dialed actively with backoff redial
// across controller restarts, Conn endpoints serve an established
// transport. sweepInterval controls periodic flow-expiry checks (0
// disables; tests sweep manually). Calling it again adds channels to
// the running agent (cfg and sweepInterval apply only to the first
// call).
func (s *S4) ConnectControllers(endpoints []controlplane.Endpoint, cfg controlplane.Config, sweepInterval time.Duration) {
	if s.agent == nil {
		s.agent = s.SS2.NewAgent(cfg, sweepInterval)
	}
	for _, ep := range endpoints {
		if ep.Conn != nil {
			s.agent.Attach(ep.Conn)
		}
		if ep.Addr != "" {
			s.agent.Dial(ep.Addr)
		}
	}
}

// Agent returns SS_2's OpenFlow agent (nil before ConnectControllers).
func (s *S4) Agent() *softswitch.Agent { return s.agent }

// Stop tears down the controller channel.
func (s *S4) Stop() {
	if s.agent != nil {
		s.agent.Stop()
	}
}

// String identifies the group node.
func (s *S4) String() string {
	return fmt.Sprintf("HARMLESS-S4(%s, %d logical ports)", s.Plan.Hostname, len(s.Plan.LogicalPorts()))
}
