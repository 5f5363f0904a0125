//! Machines: what owners contribute to the pool.
//!
//! A machine's ad is a shape and a name. Everything its owner configured —
//! `Memory`, `Arch`, `OpSys`, the policy in `Requirements`, `Rank` — is the
//! machine-independent *base*, built (and its policy text parsed) once per
//! distinct configuration and shared, with the rest of what the startd
//! reads of the spec but the name, by every machine that has it
//! (`SharedConfigs`, in the pool builder). What a machine adds is a child
//! [chained](ClassAd::chained) to that base: its `Name`, the `MachineId`
//! its startd stamps on it, and `HasJava` — the one thing §5's startd
//! decides per machine, after the self-test, and may take back.

use classads::ClassAd;
use gridvm::config::Installation;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A machine as its owner configures it.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Display name.
    pub name: String,
    /// Physical memory (MB), advertised and enforced through matchmaking.
    pub memory: i64,
    /// Architecture string.
    pub arch: String,
    /// Operating system string.
    pub opsys: String,
    /// The owner's *assertion* that Java works here. §5: "Rather than
    /// blindly accept each owner's assertion regarding the Java
    /// installation…" — the assertion may be wrong.
    pub asserts_java: bool,
    /// The actual VM installation (the ground truth the assertion may
    /// misrepresent).
    pub installation: Installation,
    /// Owner policy expression for the machine's `Requirements`.
    pub owner_requirements: String,
}

impl MachineSpec {
    /// A healthy machine that correctly asserts Java.
    pub fn healthy(name: &str, memory: i64) -> MachineSpec {
        MachineSpec {
            name: name.to_string(),
            memory,
            arch: "INTEL".into(),
            opsys: "LINUX".into(),
            asserts_java: true,
            installation: Installation::healthy(),
            owner_requirements: "TARGET.ImageSize <= MY.Memory".into(),
        }
    }

    /// A machine whose owner asserts Java but whose installation is dead —
    /// §2.3's "the machine owner might give an incorrect path".
    pub fn misconfigured(name: &str, memory: i64) -> MachineSpec {
        MachineSpec {
            installation: Installation::bad_path(),
            ..MachineSpec::healthy(name, memory)
        }
    }

    /// The insidious variant: the VM starts but the standard library is
    /// missing, so only programs touching the stdlib die.
    pub fn partially_misconfigured(name: &str, memory: i64) -> MachineSpec {
        MachineSpec {
            installation: Installation::missing_stdlib(),
            ..MachineSpec::healthy(name, memory)
        }
    }

    /// The machine-independent part of the ad: what the owner configured —
    /// `memory`, `arch`, `opsys` and `owner_requirements`, and nothing else
    /// of the spec.
    pub fn base_ad(&self) -> ClassAd {
        ClassAd::new()
            .with_int("Memory", self.memory)
            .with_str("Arch", &self.arch)
            .with_str("OpSys", &self.opsys)
            // The owner's policy is free text and must be parsed; the
            // constant rank need not be.
            .with_expr("Requirements", &self.owner_requirements)
            .with_int("Rank", 0)
    }

    // What the [base ad](MachineSpec::base_ad) is made from.
    fn ad_configuration(&self) -> (i64, &str, &str, &str) {
        let policy = &self.owner_requirements;
        (self.memory, &self.arch, &self.opsys, policy)
    }

    // Whether a machine of `other`'s spec may share this one's
    // configuration: the base ad's fields, and everything else the startd
    // reads of the spec but the name. Two machines advertising alike may
    // still run different installations.
    fn configured_like(&self, other: &MachineSpec) -> bool {
        self.ad_configuration() == other.ad_configuration()
            && self.asserts_java == other.asserts_java
            && self.installation == other.installation
    }

    /// The machine's own part of the ad, chained to `base` (which must be
    /// this spec's [`base_ad`](MachineSpec::base_ad)). `advertise_java` is
    /// the startd's decision after any self-test — it may differ from the
    /// owner's assertion.
    pub fn ad_over(&self, base: Arc<ClassAd>, advertise_java: bool) -> ClassAd {
        child_ad(base, &self.name, advertise_java)
    }

    /// The machine's ClassAd, over a base of its own.
    pub fn ad(&self, advertise_java: bool) -> ClassAd {
        self.ad_over(Arc::new(self.base_ad()), advertise_java)
    }
}

/// The ad of the machine called `name`: its own part chained to `base`.
pub(crate) fn child_ad(base: Arc<ClassAd>, name: &str, advertise_java: bool) -> ClassAd {
    let ad = ClassAd::chained(base).with_str("Name", name);
    if advertise_java {
        ad.with_bool("HasJava", true)
    } else {
        ad
    }
}

/// What a startd keeps of its [`MachineSpec`] besides the name, which its
/// statistics hold: shared, by `Arc`, among the machines configured alike.
#[derive(Debug)]
pub(crate) struct SharedConfig {
    /// The spec's [base ad](MachineSpec::base_ad).
    pub(crate) base: Arc<ClassAd>,
    /// The owner's assertion that Java works here.
    pub(crate) asserts_java: bool,
    /// The installation the self-test probes and every job runs on.
    pub(crate) installation: Installation,
}

impl SharedConfig {
    /// `spec`'s configuration, shared with nobody yet.
    pub(crate) fn of(spec: &MachineSpec) -> SharedConfig {
        SharedConfig {
            base: Arc::new(spec.base_ad()),
            asserts_java: spec.asserts_java,
            installation: spec.installation.clone(),
        }
    }
}

/// Hands every machine of one configuration the same [`SharedConfig`]: the
/// sharing step of the pool builder. A pool's machines mostly come in runs
/// of one configuration, so the configuration handed out last is tried
/// first; telling configurations apart hashes and compares borrowed fields
/// and allocates nothing per machine.
#[derive(Default)]
pub(crate) struct SharedConfigs {
    // The first spec seen of each configuration, and what it shares.
    known: Vec<(MachineSpec, Arc<SharedConfig>)>,
    // Where in `known` the configurations whose ads hash alike are.
    // Lookup-only.
    index: HashMap<u64, Vec<usize>>,
    last: usize,
}

impl SharedConfigs {
    /// The shared configuration for `spec`.
    pub(crate) fn for_spec(&mut self, spec: &MachineSpec) -> Arc<SharedConfig> {
        let same = |&at: &usize| self.known[at].0.configured_like(spec);
        if !(self.last < self.known.len() && same(&self.last)) {
            let mut hasher = DefaultHasher::new();
            spec.ad_configuration().hash(&mut hasher);
            let alike = self.index.entry(hasher.finish()).or_default();
            self.last = alike.iter().copied().find(same).unwrap_or_else(|| {
                alike.push(self.known.len());
                let shared = Arc::new(SharedConfig::of(spec));
                self.known.push((spec.clone(), shared));
                self.known.len() - 1
            });
        }
        Arc::clone(&self.known[self.last].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classads::prelude::*;
    use gridvm::config::InstallHealth;

    #[test]
    fn healthy_machine_advertises_java_attr_only_when_told() {
        let m = MachineSpec::healthy("node1", 256);
        assert!(m.ad(true).has("HasJava"));
        assert!(!m.ad(false).has("HasJava"));
    }

    /// The constant `Rank` is built as a literal; it must equal what the
    /// parser makes of `"0"`, or the compiled ad (and every digest
    /// downstream) would move.
    #[test]
    fn constructed_ad_equals_its_parsed_text_form() {
        let m = MachineSpec::healthy("node1", 256);
        let parsed = ClassAd::new()
            .with_str("Name", "node1")
            .with_int("Memory", 256)
            .with_str("Arch", "INTEL")
            .with_str("OpSys", "LINUX")
            .with_expr("Requirements", "TARGET.ImageSize <= MY.Memory")
            .with_expr("Rank", "0");
        assert_eq!(m.ad(false), parsed);
        assert_eq!(m.ad(true), parsed.with_bool("HasJava", true));
    }

    /// One base, in one shared configuration, per configuration, each seen
    /// again after two hundred others — the order that defeats the
    /// last-tried fast path.
    #[test]
    fn base_ads_are_one_per_configuration() {
        let mut configs = SharedConfigs::default();
        let spec = |i: usize, memory: i64| MachineSpec::healthy(&format!("m{i}"), memory);
        let specs: Vec<MachineSpec> = (0..600).map(|i| spec(i, 64 + (i % 200) as i64)).collect();
        let handed: Vec<Arc<SharedConfig>> = specs.iter().map(|s| configs.for_spec(s)).collect();
        assert_eq!(configs.known.len(), 200);
        for (i, (spec, config)) in specs.iter().zip(&handed).enumerate() {
            assert_eq!(*config.base, spec.base_ad());
            assert!(Arc::ptr_eq(config, &handed[i % 200]));
        }
        // Every field but the name tells: those of the ad, and those the
        // startd reads besides.
        let plain = configs.for_spec(&spec(0, 64));
        assert!(Arc::ptr_eq(&plain, &configs.for_spec(&spec(7, 64))));
        let mut odd = spec(0, 64);
        odd.opsys = "SOLARIS".into();
        assert!(!Arc::ptr_eq(&plain, &configs.for_spec(&odd)));
        odd = spec(0, 64);
        odd.owner_requirements = "true".into();
        assert!(!Arc::ptr_eq(&plain, &configs.for_spec(&odd)));
        odd = spec(0, 64);
        odd.asserts_java = false;
        assert!(!Arc::ptr_eq(&plain, &configs.for_spec(&odd)));
        for odd in [
            MachineSpec::misconfigured("m0", 64),
            MachineSpec::partially_misconfigured("m0", 64),
        ] {
            let config = configs.for_spec(&odd);
            assert!(!Arc::ptr_eq(&plain, &config));
            assert_eq!(config.installation, odd.installation);
            assert_eq!(config.base, plain.base, "same ad, its own base");
        }
        assert_eq!(configs.known.len(), 205);
    }

    #[test]
    fn misconfigured_machines_keep_asserting() {
        let m = MachineSpec::misconfigured("liar", 256);
        assert!(m.asserts_java);
        assert_eq!(m.installation.health, InstallHealth::BadPath);
        let p = MachineSpec::partially_misconfigured("half", 256);
        assert_eq!(p.installation.health, InstallHealth::MissingStdlib);
    }

    #[test]
    fn owner_requirements_gate_big_jobs() {
        let m = MachineSpec::healthy("node1", 100);
        let mad = m.ad(true);
        let small_job = ClassAd::new()
            .with_int("ImageSize", 50)
            .with_expr("Requirements", "true");
        let big_job = ClassAd::new()
            .with_int("ImageSize", 500)
            .with_expr("Requirements", "true");
        assert!(requirements_met(&mad, &small_job));
        assert!(!requirements_met(&mad, &big_job));
    }
}
