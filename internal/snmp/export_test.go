package snmp

// Len returns the number of registered objects.
func (m *MIB) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.nodes)
}
