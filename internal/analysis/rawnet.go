package analysis

import (
	"go/ast"
	"go/types"
)

// rawNetConstructors are the net/tls entry points that mint
// connections and listeners outside any runtime.
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

// RawNet reports raw network constructors in SCONE-hosted packages.
// Conns and listeners there are minted by Container.Listen/Dial: the
// runtime charges every call on them (internal/sysio) and the network
// shield wraps them in TLS. A conn from net.Dial or tls.Dial skips both.
var RawNet = &Analyzer{
	Name: "rawnet",
	Doc: `no raw net/tls conns or listeners in SCONE-hosted packages

SCONE-hosted packages (tf, dist, federated, serving, core, wire) must obtain
conns and listeners from Container.Listen/Dial. A raw conn skips the
runtime's syscall charges and the network shield, so direct
net.Listen/net.Dial/tls.Dial calls and their siblings are flagged. The
wrapper homes (internal/sysio, where every runtime opens its host
sockets, and shield) and the host-side CAS are out of scope.`,
	Run: runRawNet,
}

func runRawNet(pass *Pass) error {
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
			fn, ok := usedObject(pass.TypesInfo, sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if set, ok := rawNetConstructors[fn.Pkg().Path()]; ok && set[fn.Name()] && isPkgFunc(fn, fn.Pkg().Path(), fn.Name()) {
				pass.Reportf(call.Pos(), "%s.%s mints a raw conn/listener that skips the runtime's syscall charges and the network shield; use Container.Listen/Dial (or the Runtime equivalents)", pathTail(fn.Pkg().Path()), fn.Name())
			}
			return true
		})
	}
	return nil
}

func pathTail(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}
