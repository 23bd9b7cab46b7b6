package apps

import "fmt"

// BackendName renders a backend for reporting.
func BackendName(b Backend) string { return fmt.Sprintf("%s:%d", b.IP, b.Port) }
