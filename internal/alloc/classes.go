package alloc

// Class identifies a kernel object kind for space accounting. Capability
// objects are Go values, so no allocator backs them; the checkpoint manager
// sizes its backups (Table 2's Ckpt MiB) from the class sizes below.
type Class uint8

// Size classes, one per capability-referred object kind (Table 1) plus the
// bookkeeping structures of the checkpoint manager.
const (
	ClassCapGroup Class = iota
	ClassThread
	ClassVMSpace
	ClassPMO
	ClassIPCConn
	ClassNotification
	ClassIRQNotification
	ClassORoot
	ClassRadixNode
	ClassCheckpointedPage
	ClassVMRegion
	NumClasses
)

// classSizes gives the simulated object size in bytes per class. The values
// mirror plausible kernel object sizes in ChCore.
var classSizes = [NumClasses]int{
	ClassCapGroup:         512, // capability table header + fixed array chunk
	ClassThread:           704, // register context + scheduling state
	ClassVMSpace:          256,
	ClassPMO:              192,
	ClassIPCConn:          128,
	ClassNotification:     96,
	ClassIRQNotification:  96,
	ClassORoot:            64,
	ClassRadixNode:        576, // 64-ary node of 8-byte entries + header
	ClassCheckpointedPage: 32,  // version + backup pointer(s)
	ClassVMRegion:         96,
}

// Size returns the simulated object size of the class in bytes.
func (c Class) Size() int { return classSizes[c] }
