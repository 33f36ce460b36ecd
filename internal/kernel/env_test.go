package kernel

import (
	"testing"

	"treesls/internal/caps"
	"treesls/internal/faultplane"
)

// TestEnvStack checks the machine's Env stack: a nested RunAt and an IPC
// Call each run on an Env of their own and leave the outer operation's Env
// as it was, and an injected crash that unwinds an operation and the call
// inside it hands both Envs back.
func TestEnvStack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 0
	cfg.SkipDefaultServices = true
	m := New(cfg)
	client, _ := m.NewProcess("client", 1)
	server, _ := m.NewProcess("echo", 1)
	srvVA, _, _ := server.Mmap(1, caps.PMODefault)
	var nested []*Env
	err := m.RegisterService("echo", func(e *Env, msg []byte) ([]byte, error) {
		nested = append(nested, e)
		if e.P != server || e.T != server.MainThread() || m.envDepth != 2 {
			t.Errorf("handler runs as %q at depth %d", e.P.Name, m.envDepth)
		}
		if string(msg) == "store" {
			return nil, e.WriteU64(srvVA, 1)
		}
		return msg, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	conn := client.Connect(server)

	_, err = m.Run(client, client.MainThread(), func(e *Env) error {
		want := *e
		if _, err := m.Run(server, server.MainThread(), func(n *Env) error {
			nested = append(nested, n)
			if n.P != server || m.envDepth != 2 {
				t.Errorf("nested RunAt runs as %q at depth %d", n.P.Name, m.envDepth)
			}
			return nil
		}); err != nil {
			return err
		}
		if _, err := e.Call(conn, []byte("ping")); err != nil {
			return err
		}
		if *e != want {
			t.Errorf("a nested RunAt and a Call changed the outer Env to %+v, want %+v", *e, want)
		}
		for _, n := range nested {
			if n == e {
				t.Error("a nested frame ran on the outer Env")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(nested) != 2 || m.envDepth != 0 {
		t.Fatalf("%d nested frames ran, %d Envs still in use", len(nested), m.envDepth)
	}

	// The handler's first store materializes a page; the crash fires
	// inside it and unwinds the Call and the RunAt around it.
	m.Memory.ArmCrashAfter(1)
	fired, err := faultplane.CatchCrash(func() error {
		_, err := m.Run(client, client.MainThread(), func(e *Env) error {
			_, err := e.Call(conn, []byte("store"))
			return err
		})
		return err
	})
	if !fired || err != nil {
		t.Fatalf("injected crash fired=%v, err=%v", fired, err)
	}
	if m.envDepth != 0 {
		t.Errorf("a crash left %d Envs in use", m.envDepth)
	}
	for _, e := range m.envs {
		if *e != (Env{}) {
			t.Errorf("a handed-back Env still holds %+v", *e)
		}
	}
}
