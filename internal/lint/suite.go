package lint

// deterministicPackages are the packages under the workers=1 ≡ workers=N
// byte-identical-journal contract (established in PR 1, extended by every PR
// since): all of the search loop, the learned models it trains, the
// serialization formats it persists, and the RNG seam itself. Inside them,
// every random draw must flow through harl/internal/xrand task streams and
// nothing may read wall clocks or process identity — detrand enforces this
// mechanically.
var deterministicPackages = []string{
	"harl/internal/search",
	"harl/internal/costmodel",
	"harl/internal/schedule",
	"harl/internal/rl",
	"harl/internal/nn",
	"harl/internal/sketch",
	"harl/internal/texpr",
	"harl/internal/tunelog",
	"harl/internal/hardware",
	"harl/internal/bandit",
	"harl/internal/stats",
	"harl/internal/xrand",
}

// persistencePackages are the packages that own durable artifacts (registry
// journals and shard headers, bench summaries, tuning logs) — plus costmodel,
// which writes no file: its checkpoint codec encodes to memory only. Writes
// here must go through harl/internal/atomicfile or the locked journal helpers
// — atomicwrite rejects bare os.WriteFile / os.Create / truncating
// os.OpenFile, which tear an artifact a crash interrupts mid-write.
var persistencePackages = []string{
	"harl/internal/registry",
	"harl/internal/costmodel",
	"harl/internal/experiments",
	"harl/internal/tunelog",
}

// handlerPackages are the HTTP surfaces bound to the v1 wire contract: every
// error response is a wire.WriteError envelope and every success body a named
// versioned type — wireenvelope rejects http.Error and anonymous map[string]
// response literals, the exact bug class PR 7's S2/S3 fixed by hand.
var handlerPackages = []string{
	"harl/internal/service",
	"harl/internal/fleet",
	"harl/cmd/harl-serve",
	"harl/cmd/harl-worker",
}

// orderSensitivePackages is where maporder applies: the deterministic
// packages plus everything that feeds journals, checkpoints, fingerprints or
// wire bodies — a map iteration reaching such a sink makes output order
// depend on Go's randomized map order.
var orderSensitivePackages = append([]string{
	"harl/internal/registry",
	"harl/internal/experiments",
	"harl/internal/pretrain",
	"harl/internal/core",
	"harl/internal/service",
	"harl/internal/fleet",
	"harl",
}, deterministicPackages...)

// closePackages are the packages whose Close/Flush errors carry data-loss
// signal (a journal close that fails may mean the tail never hit the disk):
// errclose flags discarding them, wherever the call site lives. costmodel
// has no Close or Flush today.
var closePackages = []string{
	"harl/internal/tunelog",
	"harl/internal/registry",
	"harl/internal/costmodel",
}

// moduleScope is every package of this module — the outer bound for
// analyzers keyed on receiver types rather than call-site package.
var moduleScope = []string{"harl/..."}

// Suite returns the six analyzers at their production scopes — what
// cmd/harl-lint runs over every package of pkgs. pkgs must be all of what
// Load returns for ./...: deadexport analyzes them as one program, and a
// narrower set hides callers and reports false deads.
func Suite(pkgs []*Package) []*Analyzer {
	return []*Analyzer{
		newDetrand(deterministicPackages),
		newMaporder(orderSensitivePackages),
		newWireenvelope(handlerPackages),
		newAtomicwrite(persistencePackages),
		newErrclose(moduleScope),
		newDeadexport(pkgs),
	}
}
