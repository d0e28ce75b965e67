package serve

import (
	"bytes"
	"strings"
	"testing"

	"flashsim/internal/machine"
	"flashsim/internal/param"
)

func TestStoredResultRoundTrip(t *testing.T) {
	want := machine.Result{Config: "m", Instructions: 42}
	env, err := EncodeStored(want)
	if err != nil {
		t.Fatal(err)
	}
	if env.Schema != param.SchemaVersion {
		t.Fatalf("schema %d, want %d", env.Schema, param.SchemaVersion)
	}
	got, err := env.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got.Instructions != want.Instructions || got.Config != want.Config {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestStoredResultRejectsTampering(t *testing.T) {
	env, err := EncodeStored(machine.Result{Instructions: 42})
	if err != nil {
		t.Fatal(err)
	}
	flipped := env
	flipped.Result = bytes.Replace(env.Result, []byte(`"Instructions":42`), []byte(`"Instructions":43`), 1)
	if bytes.Equal(flipped.Result, env.Result) {
		t.Fatal("tamper replacement did not apply")
	}
	if _, err := flipped.Decode(); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted body decoded: %v", err)
	}
	stale := env
	stale.Schema = param.SchemaVersion + 1
	if _, err := stale.Decode(); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong-schema envelope decoded: %v", err)
	}
	truncated := env
	truncated.Result = env.Result[:len(env.Result)/2]
	if _, err := truncated.Decode(); err == nil {
		t.Fatal("truncated body decoded")
	}
}
