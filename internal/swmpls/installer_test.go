package swmpls

import (
	"testing"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
)

// TestInstallerAliases covers the table programming surface directly.
func TestInstallerAliases(t *testing.T) {
	f := New()
	dst := packet.AddrFrom(10, 0, 0, 1)
	n := NHLFE{NextHop: "n", Op: label.OpPush, PushLabels: []label.Label{100}}
	if err := f.InstallFEC(dst, 32, n); err != nil {
		t.Fatal(err)
	}
	if err := f.InstallILM(100, NHLFE{Op: label.OpPop}); err != nil {
		t.Fatal(err)
	}
	got, ok := f.LookupILM(100)
	if !ok || got.Op != label.OpPop {
		t.Errorf("LookupILM = %+v, %v", got, ok)
	}
	if _, ok := f.LookupILM(999); ok {
		t.Error("LookupILM found a phantom label")
	}
	f.RemoveILM(100)
	if _, ok := f.LookupILM(100); ok {
		t.Error("RemoveILM left the binding")
	}
	f.RemoveFEC(dst, 32)
	p := packet.New(1, dst, 64, nil)
	if res := f.Forward(p); res.Drop != DropNoRoute {
		t.Errorf("after RemoveFEC: %+v", res)
	}
}

func TestEnumStrings(t *testing.T) {
	for v, want := range map[Action]string{Forward: "forward", Deliver: "deliver", Drop: "drop", Action(9): "action(9)"} {
		if got := v.String(); got != want {
			t.Errorf("Action(%d) = %q, want %q", v, got, want)
		}
	}
	wantDrop := map[DropReason]string{
		DropNone: "none", DropNoRoute: "no-route", DropNoLabel: "no-label",
		DropTTLExpired: "ttl-expired", DropStackOverflow: "stack-overflow", DropReason(9): "drop(9)",
	}
	for v, want := range wantDrop {
		if got := v.String(); got != want {
			t.Errorf("DropReason(%d) = %q, want %q", v, got, want)
		}
	}
}
