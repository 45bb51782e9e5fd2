//! The host block stamped on every report, and the rule for comparing two.
//!
//! A figure means something only next to the machine and build that
//! produced it. Two reports are *comparable* when CPU count, CPU model,
//! compiler and build profile all match; a comparison across hosts is
//! advisory and never reduced to a ratio.

use std::fmt;

/// Where and how a report was produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub cpus: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cargo build profile of the benchmark binary.
    pub profile: String,
    /// Git commit of the measured source, or a digest of the source tree
    /// when the checkout is not a git repository.
    pub commit: String,
}

impl Host {
    /// The host block of this process. The compiler version and commit are
    /// passed in by `run.py` (`GIBENCH_RUSTC`, `GIBENCH_COMMIT`), which
    /// knows how the binary was built.
    pub fn detect() -> Host {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Host {
            cpus,
            cpu_model,
            rustc: env("GIBENCH_RUSTC"),
            profile: if cfg!(debug_assertions) {
                "debug".into()
            } else {
                "release".into()
            },
            commit: env("GIBENCH_COMMIT"),
        }
    }

    /// Key/value pairs in report order.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("cpus", self.cpus.to_string()),
            ("cpu_model", self.cpu_model.clone()),
            ("rustc", self.rustc.clone()),
            ("profile", self.profile.clone()),
            ("commit", self.commit.clone()),
        ]
    }

    /// Rebuilds a host block from report fields; missing keys read as
    /// `unknown`.
    pub fn from_fields<'a>(fields: impl Iterator<Item = (&'a str, &'a str)>) -> Host {
        let mut h = Host {
            cpus: 0,
            cpu_model: "unknown".into(),
            rustc: "unknown".into(),
            profile: "unknown".into(),
            commit: "unknown".into(),
        };
        for (k, v) in fields {
            match k {
                "cpus" => h.cpus = v.parse().unwrap_or(0),
                "cpu_model" => h.cpu_model = v.into(),
                "rustc" => h.rustc = v.into(),
                "profile" => h.profile = v.into(),
                "commit" => h.commit = v.into(),
                _ => {}
            }
        }
        h
    }

    /// True when figures from `self` and `other` may be divided: same
    /// machine shape and same build. The commit may differ — that is what
    /// a comparison measures.
    pub fn comparable(&self, other: &Host) -> bool {
        self.cpus == other.cpus
            && self.cpu_model == other.cpu_model
            && self.rustc == other.rustc
            && self.profile == other.profile
            && self.cpus > 0
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "host: {} × {} | {} | {} | commit {}",
            self.cpus, self.cpu_model, self.rustc, self.profile, self.commit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            cpus: 2,
            cpu_model: "Xeon".into(),
            rustc: "rustc 1.0".into(),
            profile: "release".into(),
            commit: "abc".into(),
        }
    }

    #[test]
    fn same_machine_different_commit_is_comparable() {
        let a = host();
        let b = Host {
            commit: "def".into(),
            ..host()
        };
        assert!(a.comparable(&b));
    }

    #[test]
    fn different_machine_is_advisory() {
        let a = host();
        for b in [
            Host { cpus: 4, ..host() },
            Host {
                cpu_model: "Epyc".into(),
                ..host()
            },
            Host {
                profile: "debug".into(),
                ..host()
            },
        ] {
            assert!(!a.comparable(&b));
        }
    }

    #[test]
    fn fields_round_trip() {
        let a = host();
        let fields = a.fields();
        let b = Host::from_fields(fields.iter().map(|(k, v)| (*k, v.as_str())));
        assert_eq!(a, b);
    }
}
