package apps

import (
	"slices"

	"github.com/harmless-sdn/harmless/internal/controller"
)

// liveSwitches drops from *list the handles whose session has ended — a
// switch that reconnects arrives as a fresh handle, so a dead one is
// never coming back — and returns a snapshot of the rest to program
// outside the app's lock. The caller holds that lock.
func liveSwitches(list *[]*controller.SwitchHandle) []*controller.SwitchHandle {
	*list = slices.DeleteFunc(*list, func(sw *controller.SwitchHandle) bool {
		select {
		case <-sw.Done():
			return true
		default:
			return false
		}
	})
	return slices.Clone(*list)
}
