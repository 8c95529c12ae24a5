//! Golden pins: the absolute expected result of every job at full scale on
//! `GpuConfig::fermi()` with the compiled-in inputs.
//!
//! A pin holds the simulated cycles, the warp instructions, and the FNV
//! checksum of the wire-encoded `LaunchStats` (the checksum
//! `gcl_exec::fleet::encode_stats_payload` returns, so it covers every
//! field). Pins change only with an intentional model change.

use gcl_sim::LaunchStats;
use gcl_stats::Json;

/// The observable identity of one job's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    /// Job (workload) name.
    pub job: String,
    /// Simulated cycles, summed over the job's launches.
    pub cycles: u64,
    /// Simulated warp instructions.
    pub warp_insts: u64,
    /// FNV checksum of the wire-encoded statistics.
    pub stats_fnv: u64,
}

impl Pin {
    /// The pin `stats` would produce for `job`.
    pub fn of(job: &str, stats: &LaunchStats) -> Pin {
        let (_, sum) = gcl_exec::fleet::encode_stats_payload(stats);
        Pin {
            job: job.to_string(),
            cycles: stats.cycles,
            warp_insts: stats.sm.warp_insts,
            stats_fnv: parse_hex(&sum).expect("encode_stats_payload renders 0x-hex"),
        }
    }

    /// One line per field that differs from `want`; empty when equal.
    pub fn diff(&self, want: &Pin) -> Vec<String> {
        let mut out = Vec::new();
        let mut field = |name: &str, got: String, exp: String| {
            if got != exp {
                out.push(format!("{name} expected {exp}, got {got}"));
            }
        };
        field("cycles", self.cycles.to_string(), want.cycles.to_string());
        field(
            "warp_insts",
            self.warp_insts.to_string(),
            want.warp_insts.to_string(),
        );
        field(
            "stats_fnv",
            format!("0x{:016x}", self.stats_fnv),
            format!("0x{:016x}", want.stats_fnv),
        );
        out
    }
}

fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// The checked-in pin set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pins {
    pins: Vec<Pin>,
}

impl Pins {
    /// Parse the pin file.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed entry.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let doc = Json::parse(text).map_err(|e| format!("pin file is not JSON: {e}"))?;
        let entries = doc
            .get("pins")
            .and_then(Json::as_arr)
            .ok_or("pin file has no `pins` array")?;
        let mut pins = Pins::default();
        for (i, e) in entries.iter().enumerate() {
            let bad = || format!("pin entry {i} is malformed");
            let pin = Pin {
                job: e
                    .get("job")
                    .and_then(Json::as_str)
                    .ok_or_else(bad)?
                    .to_string(),
                cycles: e.get("cycles").and_then(Json::as_u64).ok_or_else(bad)?,
                warp_insts: e.get("warp_insts").and_then(Json::as_u64).ok_or_else(bad)?,
                stats_fnv: e
                    .get("stats_fnv")
                    .and_then(Json::as_str)
                    .and_then(parse_hex)
                    .ok_or_else(bad)?,
            };
            if pins.get(&pin.job).is_some() {
                return Err(format!("pin for `{}` appears twice", pin.job));
            }
            pins.pins.push(pin);
        }
        Ok(pins)
    }

    /// Render in the format [`parse`](Self::parse) reads.
    pub fn render(&self) -> String {
        let entries = self
            .pins
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("job", Json::Str(p.job.clone())),
                    ("cycles", Json::UInt(p.cycles)),
                    ("warp_insts", Json::UInt(p.warp_insts)),
                    ("stats_fnv", Json::Str(format!("0x{:016x}", p.stats_fnv))),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("config", Json::Str("GpuConfig::fermi()".to_string())),
            ("scale", Json::Str("full (Workload::default)".to_string())),
            ("pins", Json::Arr(entries)),
        ]);
        doc.render_pretty() + "\n"
    }

    /// The pin for `job`.
    pub fn get(&self, job: &str) -> Option<&Pin> {
        self.pins.iter().find(|p| p.job == job)
    }

    /// Add or replace a pin.
    pub fn set(&mut self, pin: Pin) {
        match self.pins.iter_mut().find(|p| p.job == pin.job) {
            Some(p) => *p = pin,
            None => self.pins.push(pin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_pins_cover_every_workload_and_round_trip() {
        let pins = Pins::parse(crate::PINS).unwrap();
        for w in gcl_workloads::all_workloads() {
            assert!(pins.get(w.name()).is_some(), "no pin for {}", w.name());
        }
        assert_eq!(Pins::parse(&pins.render()).unwrap(), pins);
    }

    #[test]
    fn diff_names_each_differing_field() {
        let a = Pin {
            job: "x".into(),
            cycles: 1,
            warp_insts: 2,
            stats_fnv: 3,
        };
        assert!(a.diff(&a).is_empty());
        let b = Pin {
            cycles: 5,
            stats_fnv: 4,
            ..a.clone()
        };
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        assert!(d[0].contains("cycles expected 5, got 1"));
        assert!(d[1].contains("stats_fnv"));
    }

    #[test]
    fn malformed_files_are_rejected() {
        assert!(Pins::parse("[]").is_err());
        assert!(Pins::parse(r#"{"pins":[{"job":"a"}]}"#).is_err());
        let twice = r#"{"pins":[
            {"job":"a","cycles":1,"warp_insts":1,"stats_fnv":"0x1"},
            {"job":"a","cycles":1,"warp_insts":1,"stats_fnv":"0x1"}]}"#;
        assert!(Pins::parse(twice).unwrap_err().contains("twice"));
    }
}
