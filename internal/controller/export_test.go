package controller

import "net"

// Serve accepts switch connections on l until it closes.
func (c *Controller) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			if _, err := c.AttachConn(conn); err != nil {
				c.logf("controller: attach: %v", err)
			}
		}()
	}
}
