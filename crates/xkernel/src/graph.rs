//! The protocol-graph configuration language.
//!
//! The x-kernel fixes "the relationships between protocols ... at the time a
//! kernel is configured" via a `graph.comp` file. We reproduce that with a
//! small text DSL. Each line configures one protocol instance, bottom-up:
//!
//! ```text
//! # instance[: constructor] [key=value ...] [-> lower1 lower2 ...]
//! eth:  eth dev=nic0
//! arp           -> eth
//! ip            -> eth arp
//! vip           -> ip eth arp
//! mrpc: sprite channels=8 -> vip
//! ```
//!
//! * `instance` names this protocol object within the kernel; when the
//!   constructor is omitted it doubles as the constructor name, so two
//!   Ethernet instances can be written `eth0: eth` and `eth1: eth`.
//! * Everything after `->` lists the *lower* protocols this instance
//!   receives capabilities for — the late-binding handles it may `open`.
//!   They must appear on earlier lines (or be pre-registered, e.g. device
//!   drivers), enforcing a cycle-free bottom-up configuration.
//! * `key=value` parameters are passed to the constructor.
//!
//! ## Static checking
//!
//! Composition is a configuration-time decision, so composition *errors*
//! are configuration-time errors: [`ProtocolRegistry::build`] runs the
//! [`crate::lint`] pass over the spec before constructing anything, using
//! the [`crate::lint::ProtoContract`]s registered alongside each
//! constructor ([`ProtocolRegistry::add_contract`]). Error-level findings
//! reject the build with [`XError::Lint`]; see `crate::lint` for the rule
//! catalogue (XK001–XK010) and the `# xk-lint: allow=` suppression
//! directive. [`ProtocolRegistry::build_unchecked`] skips the pass for
//! specs that are deliberately ill-formed (e.g. reproducing the paper's
//! TCP-over-VIP failure at run time), and [`ProtocolRegistry::set_lint_mode`]
//! downgrades enforcement registry-wide.

use crate::error::{XError, XResult};
use crate::kernel::Kernel;
use crate::lint::{self, Diagnostic, LintOptions, ProtoContract};
use crate::map::{Map, Set};
use crate::proto::{ProtoId, ProtocolRef};
use crate::sim::Sim;

/// How [`ProtocolRegistry::build`] reacts to linter findings.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LintMode {
    /// Error-level diagnostics reject the build (the default).
    #[default]
    Enforce,
    /// Diagnostics are printed to stderr but never reject the build.
    WarnOnly,
    /// The linter does not run.
    Off,
}

/// Everything a protocol constructor receives from the graph builder.
pub struct GraphArgs<'a> {
    /// The simulator.
    pub sim: &'a Sim,
    /// The kernel being configured.
    pub kernel: &'a Kernel,
    /// The instance name from the spec line.
    pub instance: &'a str,
    /// The id reserved for the protocol under construction.
    pub me: ProtoId,
    /// Capabilities for the lower protocols listed after `->`, in order.
    pub down: Vec<ProtoId>,
    /// `key=value` parameters from the spec line.
    pub params: Map<String, String>,
}

impl GraphArgs<'_> {
    /// The `i`-th lower capability, with a configuration error if absent.
    pub fn down(&self, i: usize) -> XResult<ProtoId> {
        self.down.get(i).copied().ok_or_else(|| {
            XError::Config(format!(
                "protocol '{}' needs at least {} lower protocol(s)",
                self.instance,
                i + 1
            ))
        })
    }

    /// A required string parameter.
    pub fn param(&self, key: &str) -> XResult<&str> {
        self.params
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| XError::Config(format!("'{}' requires param {key}=", self.instance)))
    }

    /// An optional numeric parameter with a default.
    pub fn param_u64(&self, key: &str, default: u64) -> XResult<u64> {
        match self.params.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                XError::Config(format!(
                    "'{}': param {key}={v} is not a number",
                    self.instance
                ))
            }),
        }
    }
}

/// A protocol constructor: builds one instance from [`GraphArgs`].
pub type Ctor = Box<dyn Fn(&GraphArgs<'_>) -> XResult<ProtocolRef> + Send + Sync>;

/// Maps constructor names to constructors; shared by all kernels in a test
/// or benchmark so every host is configured from the same vocabulary.
#[derive(Default)]
pub struct ProtocolRegistry {
    ctors: Map<String, Ctor>,
    contracts: Map<String, ProtoContract>,
    lint_mode: LintMode,
}

impl ProtocolRegistry {
    /// An empty registry.
    pub fn new() -> ProtocolRegistry {
        ProtocolRegistry::default()
    }

    /// Registers a constructor under `name`. Panics on duplicates — that is
    /// always a programming error in test/bench setup code.
    pub fn add<F>(&mut self, name: &str, ctor: F) -> &mut Self
    where
        F: Fn(&GraphArgs<'_>) -> XResult<ProtocolRef> + Send + Sync + 'static,
    {
        let prev = self.ctors.insert(name.to_string(), Box::new(ctor));
        assert!(prev.is_none(), "duplicate constructor '{name}'");
        self
    }

    /// Registers the lint contract for the constructor of the same name.
    /// Constructors without a contract are treated as opaque (unchecked).
    pub fn add_contract(&mut self, contract: ProtoContract) -> &mut Self {
        self.contracts.insert(contract.name.clone(), contract);
        self
    }

    /// The registered contract for `ctor`, if any.
    pub fn contract(&self, ctor: &str) -> Option<&ProtoContract> {
        self.contracts.get(ctor)
    }

    /// Sets how [`ProtocolRegistry::build`] reacts to linter findings.
    pub fn set_lint_mode(&mut self, mode: LintMode) -> &mut Self {
        self.lint_mode = mode;
        self
    }

    /// Lints `spec` against the registered contracts without building
    /// anything. `externals` maps pre-existing instances (device protocols,
    /// earlier `build` results) to what they produce.
    pub fn lint(
        &self,
        spec: &str,
        externals: &Map<String, ProtoContract>,
        opts: &LintOptions,
    ) -> Vec<Diagnostic> {
        let ctors: Set<String> = self.ctors.keys().cloned().collect();
        lint::lint_spec(spec, &ctors, &self.contracts, externals, opts)
    }

    /// Lints `spec` in the context of `kernel` — every protocol already
    /// registered there (NICs, earlier builds) counts as an external whose
    /// contract comes from [`crate::proto::Protocol::contract`].
    pub fn lint_for_kernel(&self, kernel: &Kernel, spec: &str) -> Vec<Diagnostic> {
        let mut externals = Map::default();
        for name in kernel.protocol_names() {
            if let Ok(p) = kernel.get(&name) {
                externals.insert(name, p.contract());
            }
        }
        self.lint(spec, &externals, &LintOptions::default())
    }

    /// Builds the protocols described by `spec` into `kernel`, bottom-up,
    /// then boots them in the same order. Returns the instances built.
    ///
    /// The spec is linted first; Error-level diagnostics reject the build
    /// with [`XError::Lint`] unless the registry's [`LintMode`] says
    /// otherwise. Use [`ProtocolRegistry::build_unchecked`] to bypass the
    /// linter for a single deliberately ill-formed spec.
    pub fn build(&self, sim: &Sim, kernel: &Kernel, spec: &str) -> XResult<Vec<ProtoId>> {
        match self.lint_mode {
            LintMode::Off => {}
            mode => {
                let diags = self.lint_for_kernel(kernel, spec);
                if !diags.is_empty() && mode == LintMode::WarnOnly {
                    for d in &diags {
                        eprintln!("xk-lint: {d}");
                    }
                }
                if mode == LintMode::Enforce && lint::has_errors(&diags) {
                    return Err(XError::Lint(diags));
                }
            }
        }
        self.build_unchecked(sim, kernel, spec)
    }

    /// [`ProtocolRegistry::build`] without the lint pass.
    pub fn build_unchecked(&self, sim: &Sim, kernel: &Kernel, spec: &str) -> XResult<Vec<ProtoId>> {
        let mut built = Vec::new();
        for (lineno, raw) in spec.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let parsed = parse_line(line)
                .map_err(|e| XError::Config(format!("graph line {}: {e}", lineno + 1)))?;
            let down = parsed
                .down
                .iter()
                .map(|n| kernel.lookup(n))
                .collect::<XResult<Vec<_>>>()?;
            let ctor = self.ctors.get(&parsed.ctor).ok_or_else(|| {
                XError::Config(format!(
                    "graph line {}: unknown constructor '{}'",
                    lineno + 1,
                    parsed.ctor
                ))
            })?;
            let me = kernel.reserve(&parsed.instance)?;
            let args = GraphArgs {
                sim,
                kernel,
                instance: &parsed.instance,
                me,
                down,
                params: parsed.params,
            };
            let proto = ctor(&args)?;
            kernel.install(me, proto)?;
            built.push(me);
        }
        let ctx = sim.ctx(kernel.host());
        for id in &built {
            kernel.proto(*id)?.boot(&ctx)?;
        }
        Ok(built)
    }
}

pub(crate) struct ParsedLine {
    pub(crate) instance: String,
    pub(crate) ctor: String,
    pub(crate) params: Map<String, String>,
    pub(crate) down: Vec<String>,
}

pub(crate) fn parse_line(line: &str) -> Result<ParsedLine, String> {
    let (head, tail) = match line.split_once("->") {
        Some((h, t)) => (h.trim(), Some(t.trim())),
        None => (line.trim(), None),
    };
    let mut tokens = head.split_whitespace();
    let first = tokens.next().ok_or("missing protocol name")?;
    let (instance, mut ctor) = match first.strip_suffix(':') {
        Some(inst) => (inst.to_string(), None),
        None => {
            if let Some((inst, rest)) = first.split_once(':') {
                (inst.to_string(), Some(rest.to_string()))
            } else {
                (first.to_string(), None)
            }
        }
    };
    let mut params = Map::default();
    for tok in tokens {
        if let Some((k, v)) = tok.split_once('=') {
            params.insert(k.to_string(), v.to_string());
        } else if ctor.is_none() {
            ctor = Some(tok.to_string());
        } else {
            return Err(format!("unexpected token '{tok}'"));
        }
    }
    let ctor = ctor.unwrap_or_else(|| instance.clone());
    if instance.is_empty() || ctor.is_empty() {
        return Err("empty instance or constructor name".into());
    }
    let down = tail
        .map(|t| t.split_whitespace().map(str::to_string).collect())
        .unwrap_or_default();
    Ok(ParsedLine {
        instance,
        ctor,
        params,
        down,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_plain() {
        let p = parse_line("arp -> eth").unwrap();
        assert_eq!(p.instance, "arp");
        assert_eq!(p.ctor, "arp");
        assert_eq!(p.down, vec!["eth".to_string()]);
        assert!(p.params.is_empty());
    }

    #[test]
    fn parse_instance_ctor_params() {
        let p = parse_line("mrpc: sprite channels=8 -> vip").unwrap();
        assert_eq!(p.instance, "mrpc");
        assert_eq!(p.ctor, "sprite");
        assert_eq!(p.params.get("channels").map(String::as_str), Some("8"));
        assert_eq!(p.down, vec!["vip".to_string()]);
    }

    #[test]
    fn parse_colon_attached() {
        let p = parse_line("eth0:eth dev=nic0").unwrap();
        assert_eq!(p.instance, "eth0");
        assert_eq!(p.ctor, "eth");
        assert_eq!(p.params.get("dev").map(String::as_str), Some("nic0"));
        assert!(p.down.is_empty());
    }

    #[test]
    fn parse_multi_down() {
        let p = parse_line("vip -> ip eth arp").unwrap();
        assert_eq!(p.down, vec!["ip", "eth", "arp"]);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(parse_line("a: b c d=1").is_err(), "stray token 'c'");
        assert!(parse_line("").is_err());
    }
}
