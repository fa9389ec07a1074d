package fabric

// SetSkipAckGate plants (true) or clears (false) the ungated-ack bug:
// awaitReplicated then completes every waiter without consulting the
// replication watermark.
func SetSkipAckGate(v bool) { skipAckGate = v }
