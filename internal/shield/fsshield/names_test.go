package fsshield

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/securetf/securetf/internal/fsapi"
)

// TestShieldNamesAreCanonical: the policy and the keys see a name as
// the host file system resolves it, so no second spelling of a
// protected file reaches it unprotected or under other keys.
func TestShieldNamesAreCanonical(t *testing.T) {
	secret := []byte("SENSITIVE-PAYLOAD")

	t.Run("dot slash is stored encrypted", func(t *testing.T) {
		inner := fsapi.NewMem()
		s := newTestShield(t, inner)
		if err := fsapi.WriteFile(s, "./secret/a", secret); err != nil {
			t.Fatal(err)
		}
		raw, err := fsapi.ReadFile(inner, "secret/a")
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, secret) {
			t.Fatal("./secret/a stored its plaintext on the host")
		}
		got, err := fsapi.ReadFile(s, "secret/a")
		if err != nil || !bytes.Equal(got, secret) {
			t.Fatalf("secret/a reads %q, %v", got, err)
		}
	})

	t.Run("planted file fails under every spelling", func(t *testing.T) {
		inner := fsapi.NewMem()
		s := newTestShield(t, inner)
		if err := fsapi.WriteFile(inner, "secret/m", []byte("host-planted")); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"secret/m", "./secret/m", "/secret/m", "secret//m", "secret/x/../m"} {
			if _, err := fsapi.ReadFile(s, name); !errors.Is(err, ErrTampered) {
				t.Errorf("reading a host-planted file as %q: err = %v, want ErrTampered", name, err)
			}
		}
	})

	t.Run("double slash is the same file", func(t *testing.T) {
		s := newTestShield(t, fsapi.NewMem())
		if err := fsapi.WriteFile(s, "secret//b", secret); err != nil {
			t.Fatal(err)
		}
		got, err := fsapi.ReadFile(s, "secret/b")
		if err != nil || !bytes.Equal(got, secret) {
			t.Fatalf("secret/b reads %q, %v", got, err)
		}
		if fi, err := s.Stat("secret/./b/"); err != nil || fi.Size != int64(len(secret)) || fi.Name != "secret/b" {
			t.Fatalf("Stat(secret/./b/) = %+v, %v", fi, err)
		}
	})

	t.Run("dots inside a name are a name", func(t *testing.T) {
		s := newTestShield(t, fsapi.NewOS(t.TempDir()))
		for _, name := range []string{"a..b", "secret/a..b", "signed/...", "plain/x..y"} {
			if err := fsapi.WriteFile(s, name, secret); err != nil {
				t.Fatalf("writing %q: %v", name, err)
			}
			if got, err := fsapi.ReadFile(s, name); err != nil || !bytes.Equal(got, secret) {
				t.Fatalf("%q reads %q, %v", name, got, err)
			}
		}
	})

	t.Run("climbing out of the root is refused", func(t *testing.T) {
		s := newTestShield(t, fsapi.NewMem())
		for _, name := range []string{"../secret/a", "secret/../../a", "/.."} {
			if _, err := s.Create(name); err == nil {
				t.Errorf("Create(%q) succeeded", name)
			}
			if _, err := s.Stat(name); err == nil || errors.Is(err, fsapi.ErrNotExist) {
				t.Errorf("Stat(%q) = %v, want a refusal", name, err)
			}
			if got := s.LevelFor(name); got != 0 {
				t.Errorf("LevelFor(%q) = %v, want none", name, got)
			}
		}
		if _, err := New(Config{Inner: fsapi.NewMem(), Rules: []Rule{{Prefix: "../x/", Level: LevelEncrypted}}}); err == nil {
			t.Error("a rule prefix outside the root was accepted")
		}
	})

	t.Run("prefixes match whole elements", func(t *testing.T) {
		s := newTestShield(t, fsapi.NewMem(), func(c *Config) {
			c.Rules = append(c.Rules, Rule{Prefix: "./deep//keys/", Level: LevelAuthenticated})
		})
		for name, want := range map[string]Level{
			"secret":          LevelEncrypted,
			"secret/a":        LevelEncrypted,
			"./secret/a":      LevelEncrypted,
			"secretive":       LevelPassthrough,
			"secret.bak/a":    LevelPassthrough,
			"deep/keys/k":     LevelAuthenticated,
			"deep/keystore/k": LevelPassthrough,
			"plain/secret/a":  LevelPassthrough,
		} {
			if got := s.LevelFor(name); got != want {
				t.Errorf("LevelFor(%q) = %v, want %v", name, got, want)
			}
		}
	})
}

// FuzzShieldNames: two names the inner file system resolves to one file
// get one canonical name, so one level and one key set, and a file
// written under one reads back under the other. Each input is checked
// against the alias its slashes make too.
func FuzzShieldNames(f *testing.F) {
	for _, seed := range [][2]string{
		{"./secret/a", "secret/a"},
		{"secret//b", "secret/b"},
		{"/signed/c/", "signed/c"},
		{"secret/x/../y", "secret/y"},
		{"secretive", "secret/ive"},
		{"secret/a..b", "secret/a..b"},
		{"../secret/e", "secret/e"},
		{"secret/./f", "./secret//f/"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		checkAliases(t, a, b)
		checkAliases(t, a, "./"+strings.ReplaceAll(a, "/", "//")+"/")
	})
}

func checkAliases(t *testing.T, a, b string) {
	ca, errA := canon(a)
	cb, errB := canon(b)
	if errA != nil || errB != nil {
		return // a refused name reaches no file
	}
	probe := fsapi.NewMem()
	if err := fsapi.WriteFile(probe, a, nil); err != nil {
		t.Fatal(err)
	}
	_, err := probe.Stat(b)
	if same := err == nil; same != (ca == cb) {
		t.Fatalf("%q and %q: one host file is %v, one canonical name (%q, %q) is %v", a, b, same, ca, cb, ca == cb)
	}
	if ca != cb {
		return
	}
	inner := fsapi.NewMem()
	s := newTestShield(t, inner)
	if la, lb := s.LevelFor(a), s.LevelFor(b); la != lb {
		t.Fatalf("%q is %v and %q is %v", a, la, b, lb)
	}
	data := []byte("payload of " + a)
	if err := fsapi.WriteFile(s, a, data); err != nil {
		t.Fatalf("writing %q: %v", a, err)
	}
	got, err := fsapi.ReadFile(s, b)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("wrote %q, read %q back as %q, %v", a, b, got, err)
	}
}
