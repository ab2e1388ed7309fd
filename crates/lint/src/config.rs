//! The workspace contract, declared in one place.
//!
//! Everything the rule engine enforces that is *repo policy* (rather than
//! general Rust hygiene) lives in the tables below: the crate dependency
//! DAG, the shims-only external-dependency policy, the per-layer
//! forbidden-API entries and the files whose `Relaxed` atomics must be
//! justified.  To change an invariant, change the table — the diff then
//! *is* the policy change, reviewable on its own.

/// One workspace crate and the dependencies its layer is allowed.
#[derive(Debug, PartialEq, Eq)]
pub struct CrateSpec {
    /// Package name as in `Cargo.toml`.
    pub name: &'static str,
    /// Directory relative to the workspace root.
    pub dir: &'static str,
    /// Allowed `[dependencies]` — the layering DAG. Everything not listed
    /// here is a violation, so adding a dependency edge requires editing
    /// this table.
    pub deps: &'static [&'static str],
    /// Additional crates allowed in `[dev-dependencies]` (tests/benches
    /// may reach down-stack or pull in the test-harness shims).
    pub dev_deps: &'static [&'static str],
}

/// The only external (non-`nrsnn-*`) dependencies any crate may declare:
/// the offline in-tree shims.  This is the mechanical form of the
/// "shims-only / std-only" policy.
pub const SHIM_CRATES: &[&str] = &[
    "rand",
    "serde",
    "serde_derive",
    "serde_json",
    "criterion",
    "proptest",
];

/// The declared dependency DAG, bottom of the stack first.
///
/// Load-bearing edges that must stay *absent*:
/// * `nrsnn-snn` (and everything below it) must not depend on `nrsnn-obs`
///   — simulation layers carry no observability dependency; serve converts
///   snn's raw stage marks into obs timelines at the boundary.
/// * `nrsnn-obs` and `nrsnn-runtime` depend on nothing at all (std only).
/// * Only `nrsnn-serve`/`nrsnn-bench`/the umbrella may see `nrsnn-wire`.
pub const CRATES: &[CrateSpec] = &[
    CrateSpec {
        name: "nrsnn-runtime",
        dir: "crates/runtime",
        deps: &[],
        dev_deps: &[],
    },
    CrateSpec {
        name: "nrsnn-obs",
        dir: "crates/obs",
        deps: &[],
        dev_deps: &[],
    },
    CrateSpec {
        name: "nrsnn-tensor",
        dir: "crates/tensor",
        deps: &["rand", "serde"],
        dev_deps: &["proptest"],
    },
    CrateSpec {
        name: "nrsnn-dnn",
        dir: "crates/dnn",
        deps: &["nrsnn-tensor", "rand", "serde", "serde_json"],
        dev_deps: &[],
    },
    CrateSpec {
        name: "nrsnn-data",
        dir: "crates/data",
        deps: &["nrsnn-tensor", "rand", "serde"],
        dev_deps: &[],
    },
    CrateSpec {
        name: "nrsnn-snn",
        dir: "crates/snn",
        deps: &["nrsnn-tensor", "nrsnn-dnn", "rand", "serde"],
        dev_deps: &["proptest"],
    },
    CrateSpec {
        name: "nrsnn-noise",
        dir: "crates/noise",
        deps: &["nrsnn-tensor", "nrsnn-snn", "rand", "serde"],
        dev_deps: &["nrsnn-runtime", "proptest"],
    },
    CrateSpec {
        name: "nrsnn",
        dir: "crates/core",
        deps: &[
            "nrsnn-tensor",
            "nrsnn-dnn",
            "nrsnn-data",
            "nrsnn-snn",
            "nrsnn-noise",
            "nrsnn-runtime",
            "rand",
            "serde",
        ],
        dev_deps: &["serde_json"],
    },
    CrateSpec {
        name: "nrsnn-wire",
        dir: "crates/wire",
        deps: &["nrsnn-dnn", "nrsnn-snn", "nrsnn-tensor"],
        dev_deps: &["proptest", "rand"],
    },
    CrateSpec {
        name: "nrsnn-serve",
        dir: "crates/serve",
        deps: &[
            "nrsnn-dnn",
            "nrsnn-noise",
            "nrsnn-obs",
            "nrsnn-runtime",
            "nrsnn-snn",
            "nrsnn-tensor",
            "nrsnn-wire",
            "rand",
            "serde",
            "serde_json",
        ],
        dev_deps: &[],
    },
    CrateSpec {
        name: "nrsnn-bench",
        dir: "crates/bench",
        deps: &[
            "nrsnn",
            "nrsnn-data",
            "nrsnn-noise",
            "nrsnn-runtime",
            "nrsnn-serve",
            "nrsnn-snn",
            "nrsnn-tensor",
            "nrsnn-wire",
            "rand",
            "serde_json",
        ],
        dev_deps: &["criterion"],
    },
    CrateSpec {
        name: "nrsnn-lint",
        dir: "crates/lint",
        deps: &[],
        dev_deps: &[],
    },
    CrateSpec {
        name: "nrsnn-repro",
        dir: ".",
        deps: &[
            "nrsnn",
            "nrsnn-data",
            "nrsnn-noise",
            "nrsnn-obs",
            "nrsnn-runtime",
            "nrsnn-serve",
            "nrsnn-snn",
            "nrsnn-tensor",
            "rand",
            "serde_json",
        ],
        dev_deps: &[],
    },
    // Shims: stand-ins for crates.io packages; they may only depend on
    // each other (and must stay leaf-like).
    CrateSpec {
        name: "rand",
        dir: "shims/rand",
        deps: &[],
        dev_deps: &[],
    },
    CrateSpec {
        name: "serde",
        dir: "shims/serde",
        deps: &["serde_derive"],
        dev_deps: &[],
    },
    CrateSpec {
        name: "serde_derive",
        dir: "shims/serde_derive",
        deps: &[],
        dev_deps: &[],
    },
    CrateSpec {
        name: "serde_json",
        dir: "shims/serde_json",
        deps: &["serde"],
        dev_deps: &[],
    },
    CrateSpec {
        name: "criterion",
        dir: "shims/criterion",
        deps: &[],
        dev_deps: &[],
    },
    CrateSpec {
        name: "proptest",
        dir: "shims/proptest",
        deps: &["rand"],
        dev_deps: &[],
    },
];

/// Looks a crate up by the directory prefix of a workspace-relative path
/// (`crates/serve/src/server.rs` → `nrsnn-serve`). Files directly under
/// the root (`src/`, `tests/`, `examples/`) belong to the umbrella.
pub fn crate_for_path(rel_path: &str) -> Option<&'static CrateSpec> {
    CRATES
        .iter()
        .filter(|c| c.dir != ".")
        .find(|c| {
            rel_path.starts_with(c.dir) && rel_path.as_bytes().get(c.dir.len()) == Some(&b'/')
        })
        .or_else(|| {
            // Root umbrella package: src/, tests/, examples/ at the top.
            if rel_path.starts_with("src/")
                || rel_path.starts_with("tests/")
                || rel_path.starts_with("examples/")
            {
                CRATES.iter().find(|c| c.dir == ".")
            } else {
                None
            }
        })
}

/// Where a forbidden-API entry applies.
pub struct ApiDeny {
    /// Path segments to match as a `::`-separated token sequence. A
    /// one-segment entry is a bare identifier (macros match `name !`).
    pub path: &'static [&'static str],
    /// `true` if this is a macro invocation (`name!`).
    pub is_macro: bool,
    /// Crates whose library sources are exempt.
    pub exempt_crates: &'static [&'static str],
    /// If non-empty, the entry only applies to crates in this list.
    pub only_crates: &'static [&'static str],
    /// If non-empty, the entry only applies to files whose
    /// workspace-relative path starts with one of these prefixes.
    pub only_path_prefixes: &'static [&'static str],
    /// What is wrong with the API, shown in the diagnostic.
    pub why: &'static str,
}

/// The per-layer API deny list.  All entries apply to library sources
/// (`src/` of a workspace crate) outside `#[cfg(test)]` regions; tests,
/// benches and examples are exempt by construction.
pub const API_DENY: &[ApiDeny] = &[
    ApiDeny {
        path: &["std", "time", "Instant"],
        is_macro: false,
        // obs owns the one process-wide monotonic clock; the lint CLI has
        // no timing at all but is listed for symmetry with SystemTime.
        exempt_crates: &["nrsnn-obs"],
        only_crates: &[],
        only_path_prefixes: &[],
        why: "raw monotonic time outside crates/obs breaks the single-epoch clock discipline; \
              use nrsnn_obs::Clock (or justify with an allow)",
    },
    ApiDeny {
        path: &["std", "time", "SystemTime"],
        is_macro: false,
        exempt_crates: &["nrsnn-obs"],
        only_crates: &[],
        only_path_prefixes: &[],
        why: "wall-clock time is nondeterministic and must not reach library code; \
              only crates/obs may observe it",
    },
    ApiDeny {
        path: &["println"],
        is_macro: true,
        // The lint binary's findings are its product; everything else in
        // the workspace routes output through the caller.
        exempt_crates: &["nrsnn-lint"],
        only_crates: &[],
        only_path_prefixes: &[],
        why: "library crates must not write to stdout; return data or take a writer",
    },
    ApiDeny {
        path: &["eprintln"],
        is_macro: true,
        exempt_crates: &["nrsnn-lint"],
        only_crates: &[],
        only_path_prefixes: &[],
        why: "library crates must not write to stderr; return a typed error instead",
    },
    ApiDeny {
        path: &["thread", "sleep"],
        is_macro: false,
        exempt_crates: &[],
        only_crates: &["nrsnn-serve", "nrsnn-runtime"],
        only_path_prefixes: &[],
        why: "sleeping in serve/runtime code hides latency and breaks shutdown timeliness; \
              use condvar waits with deadlines (or justify with an allow)",
    },
    ApiDeny {
        path: &["HashMap"],
        is_macro: false,
        exempt_crates: &[],
        only_crates: &[],
        only_path_prefixes: WIRE_PATH_PREFIXES,
        why: "HashMap iteration order is nondeterministic; a wire/serialization path must use \
              BTreeMap or explicitly sorted keys",
    },
    ApiDeny {
        path: &["HashSet"],
        is_macro: false,
        exempt_crates: &[],
        only_crates: &[],
        only_path_prefixes: WIRE_PATH_PREFIXES,
        why: "HashSet iteration order is nondeterministic; a wire/serialization path must use \
              BTreeSet or explicitly sorted keys",
    },
];

/// Files that feed bytes onto a wire or into a serialized artifact — the
/// scope of the hash-iteration entries above.
pub const WIRE_PATH_PREFIXES: &[&str] = &[
    "crates/wire/src/",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/binary.rs",
    "crates/serve/src/metrics.rs",
];

/// Files whose `Ordering::Relaxed` sites sit on *merge paths* — places
/// where per-shard state is combined into one observable value — and must
/// therefore carry an `// ORDERING:` justification.  `SeqCst`, `Acquire`,
/// `Release` and `AcqRel` need one everywhere in library code.
pub const RELAXED_AUDIT_PREFIXES: &[&str] = &[
    "crates/obs/src/",
    "crates/tensor/src/simd/",
    "crates/serve/src/metrics.rs",
];

/// The crate whose `unwrap()`/`expect()` calls are audited (reachable
/// panics in the serving path take the whole worker down).
pub const UNWRAP_AUDIT_PREFIX: &str = "crates/serve/src/";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_edges_point_at_known_crates() {
        let names: Vec<&str> = CRATES.iter().map(|c| c.name).collect();
        for c in CRATES {
            for d in c.deps.iter().chain(c.dev_deps) {
                assert!(names.contains(d), "{} lists unknown dependency {d}", c.name);
            }
        }
    }

    #[test]
    fn external_deps_are_shims_only() {
        for c in CRATES {
            for d in c.deps.iter().chain(c.dev_deps) {
                let internal = d.starts_with("nrsnn");
                assert!(
                    internal || SHIM_CRATES.contains(d),
                    "{}: external dependency {d} is not a shim",
                    c.name
                );
            }
        }
    }

    #[test]
    fn snn_and_below_never_depend_on_obs() {
        for name in [
            "nrsnn-tensor",
            "nrsnn-dnn",
            "nrsnn-data",
            "nrsnn-snn",
            "nrsnn-noise",
            "nrsnn",
        ] {
            let spec = CRATES.iter().find(|c| c.name == name).expect("in table");
            assert!(
                !spec.deps.contains(&"nrsnn-obs") && !spec.dev_deps.contains(&"nrsnn-obs"),
                "{name} must not depend on nrsnn-obs"
            );
        }
    }

    #[test]
    fn path_to_crate_mapping() {
        assert_eq!(
            crate_for_path("crates/serve/src/server.rs").map(|c| c.name),
            Some("nrsnn-serve")
        );
        assert_eq!(
            crate_for_path("crates/snn/tests/coding_simd_proptest.rs").map(|c| c.name),
            Some("nrsnn-snn")
        );
        assert_eq!(
            crate_for_path("tests/alloc_regression.rs").map(|c| c.name),
            Some("nrsnn-repro")
        );
        assert_eq!(
            crate_for_path("shims/serde_json/src/lib.rs").map(|c| c.name),
            Some("serde_json")
        );
        assert_eq!(crate_for_path("docs/ARCHITECTURE.md"), None);
    }
}
