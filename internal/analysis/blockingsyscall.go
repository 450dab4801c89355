package analysis

import (
	"go/ast"
	"go/types"
)

// rawNetConstructors are the net/tls entry points that mint
// connections and listeners outside any runtime. A conn created here
// never passes through Runtime.Listen/Dial, so its blocking waits
// bypass the SCONE syscall ring entirely — the exact class of bug
// behind the PR 1 deadlock (a blocking read parked inside the bounded
// request ring starves every other thread's syscalls).
var rawNetConstructors = map[string]map[string]bool{
	"net": {
		"Listen": true, "ListenTCP": true, "ListenPacket": true,
		"Dial": true, "DialTimeout": true, "DialTCP": true,
		"FileConn": true, "FileListener": true,
	},
	"crypto/tls": {
		"Listen": true, "Dial": true, "DialWithDialer": true,
	},
}

// BlockingSyscall reports raw network use in SCONE-hosted packages.
// Conns and listeners there are minted by Container.Listen/Dial, which
// wrap them in internal/sysio's conn and listener, whose Read and
// Accept park inline instead of holding a slot in the bounded syscall
// ring. Creating raw conns, or calling Read/Accept on a value
// statically typed as a raw net conn/listener, sidesteps that
// guarantee. The one accept loop (internal/wire), which runs over
// injected, already-wrapped listeners, is annotated at the site.
var BlockingSyscall = &Analyzer{
	Name: "blockingsyscall",
	Doc: `no raw blocking socket calls outside the SCONE ring wrappers

SCONE-hosted packages (tf, dist, federated, serving, core, wire) must obtain
conns and listeners from Container.Listen/Dial — the runtimes wrap them
in internal/sysio, which keeps blocking waits out of the ring. Direct
net.Listen/net.Dial/tls.Dial calls, and Read/Accept on values typed as
net.Conn/net.Listener, are flagged; sites operating on listeners the
container already wrapped carry //securetf:allow blockingsyscall
annotations. The wrapper homes (internal/sysio, nativert, shield) and
the host-side CAS are out of scope.`,
	Run: runBlockingSyscall,
}

func runBlockingSyscall(pass *Pass) error {
	if !inScope(pass.Pkg.Path(), "tf", "dist", "federated", "serving", "core", "wire") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := usedObject(pass.TypesInfo, sel.Sel)
			if obj == nil {
				return true
			}
			// Raw constructors: package-level net/tls functions.
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
				if set, ok := rawNetConstructors[fn.Pkg().Path()]; ok && set[fn.Name()] && isPkgFunc(obj, fn.Pkg().Path(), fn.Name()) {
					pass.Reportf(call.Pos(), "%s.%s mints a raw conn/listener that bypasses the SCONE syscall ring; use Container.Listen/Dial (or the Runtime equivalents) so blocking waits go through the sysio wrappers", pathTail(fn.Pkg().Path()), fn.Name())
					return true
				}
			}
			// Blocking methods on values statically typed as raw net
			// conns/listeners.
			if obj.Name() != "Read" && obj.Name() != "Accept" {
				return true
			}
			tv, ok := pass.TypesInfo.Types[sel.X]
			if !ok || !isRawNetType(tv.Type) {
				return true
			}
			pass.Reportf(call.Pos(), "%s on a raw %s parks a blocking syscall outside the sysio wrappers (the PR 1 deadlock class); go through the runtime wrappers, or annotate a container-wrapped value with //securetf:allow blockingsyscall <reason>", obj.Name(), types.TypeString(tv.Type, nil))
			return true
		})
	}
	return nil
}

// isRawNetType reports whether t is one of the raw network types whose
// Read/Accept block: the net.Conn and net.Listener interfaces and the
// concrete TCP/TLS conn types.
func isRawNetType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "net":
		switch obj.Name() {
		case "Conn", "Listener", "TCPConn", "TCPListener", "UnixConn", "UnixListener":
			return true
		}
	case "crypto/tls":
		return obj.Name() == "Conn"
	}
	return false
}

func pathTail(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}
