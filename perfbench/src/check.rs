//! Output checks: every op's result is verified after its timer stops.
//!
//! Three checks hold for every seed: the grouping is an exact cover, each
//! group satisfies the constraints (and the group count its bounds), and
//! the reported distance is bit-equal to `grouping_distance` recomputed
//! over the groups in [`ClassSet`] order — the order `Selection` sums in.
//! An infeasible verdict fails when the all-singleton grouping satisfies
//! the constraints. For the default seed the results must also match the
//! pins in `pins.txt`.

use gecco_constraints::{CompiledConstraintSet, ConstraintSet};
use gecco_core::{grouping_distance, Grouping};
use gecco_eventlog::{ClassSet, EvalContext, EventLog, LogIndex, Segmenter};

/// 64-bit FNV-1a over the output XES bytes.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// What one op produced, reduced to what the pins and the traced run are
/// compared on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Whether a grouping satisfying the constraints was found.
    pub feasible: bool,
    /// Number of groups (0 when infeasible).
    pub groups: usize,
    /// Bits of the reported distance (0 when infeasible).
    pub distance_bits: u64,
    /// Whether the solver proved the grouping optimal.
    pub proven: bool,
    /// FNV-1a of the abstracted log's XES bytes (0 when infeasible).
    pub digest: u64,
}

impl Summary {
    /// The summary of an infeasible op.
    pub const INFEASIBLE: Summary =
        Summary { feasible: false, groups: 0, distance_bits: 0, proven: true, digest: 0 };

    /// The reported distance.
    pub fn distance(&self) -> f64 {
        f64::from_bits(self.distance_bits)
    }

    /// The `pins.txt` line of `workload`.
    pub fn pin_line(&self, workload: &str) -> String {
        format!(
            "{workload} {} {} {:016x} {} {:016x}",
            u8::from(self.feasible),
            self.groups,
            self.distance_bits,
            u8::from(self.proven),
            self.digest
        )
    }
}

/// The pinned result of a workload's op at the default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Workload name.
    pub workload: &'static str,
    /// Pinned result.
    pub summary: Summary,
}

/// Parses the pins file: `workload feasible groups distance_bits proven digest`.
pub fn parse_pins(text: &'static str) -> Result<Vec<Pin>, String> {
    let mut pins = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("pins line {}: bad {what}: {line:?}", number + 1);
        let fields: Vec<&'static str> = line.split_whitespace().collect();
        let [workload, feasible, groups, distance, proven, digest] = fields[..] else {
            return Err(bad("field count"));
        };
        let flag = |s: &str, what: &str| match s {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad(what)),
        };
        pins.push(Pin {
            workload,
            summary: Summary {
                feasible: flag(feasible, "feasible")?,
                groups: groups.parse().map_err(|_| bad("groups"))?,
                distance_bits: u64::from_str_radix(distance, 16).map_err(|_| bad("distance"))?,
                proven: flag(proven, "proven")?,
                digest: u64::from_str_radix(digest, 16).map_err(|_| bad("digest"))?,
            },
        });
    }
    Ok(pins)
}

/// Compares an op's result with its pin. A result the node budget cut
/// short (or a pin that was) need only be feasible alike and no worse
/// than the pinned distance; two proven results must match exactly.
pub fn check_pin(pin: &Summary, got: &Summary) -> Result<(), String> {
    if pin.feasible != got.feasible {
        return Err(format!("feasible {} but pinned {}", got.feasible, pin.feasible));
    }
    if !got.feasible {
        return Ok(());
    }
    if pin.proven && got.proven {
        if got.groups != pin.groups {
            return Err(format!("{} groups but pinned {}", got.groups, pin.groups));
        }
        if got.distance_bits != pin.distance_bits {
            return Err(format!("distance {} but pinned {}", got.distance(), pin.distance()));
        }
        if got.digest != pin.digest {
            return Err(format!("digest {:016x} but pinned {:016x}", got.digest, pin.digest));
        }
    } else if got.distance() > pin.distance() {
        return Err(format!(
            "unproven distance {} exceeds pinned {}",
            got.distance(),
            pin.distance()
        ));
    }
    Ok(())
}

/// Checks a feasible op's grouping against the log and constraints it
/// was computed from, on a fresh context (no shared cache, so no verdict
/// is taken on trust from the run being checked).
pub fn check_grouping(
    log: &EventLog,
    index: &LogIndex,
    constraints: &str,
    grouping: &Grouping,
    distance: f64,
) -> Result<(), String> {
    if !grouping.is_exact_cover(log) {
        return Err("grouping is not an exact cover of the occurring classes".into());
    }
    let spec = ConstraintSet::parse(constraints).map_err(|e| format!("constraints: {e}"))?;
    let compiled = CompiledConstraintSet::compile_with(&spec, log, Segmenter::RepeatSplit)
        .map_err(|e| format!("constraints: {e}"))?;
    let ctx = EvalContext::new(log, index);
    if let Some(group) = grouping.iter().find(|g| !compiled.holds(g, &ctx)) {
        return Err(format!("group {} violates the constraints", log.format_group(group)));
    }
    if !compiled.group_count_ok(grouping.len()) {
        return Err(format!("{} groups violate the group-count bounds", grouping.len()));
    }
    let mut groups: Vec<ClassSet> = grouping.groups().to_vec();
    groups.sort_unstable();
    let recomputed = grouping_distance(&ctx, groups, Segmenter::RepeatSplit);
    if recomputed.to_bits() != distance.to_bits() {
        return Err(format!("distance {distance} but grouping_distance gives {recomputed}"));
    }
    Ok(())
}

/// Checks an infeasible verdict as far as one grouping can: when the
/// all-singleton grouping satisfies the constraints on a fresh context,
/// the problem is feasible and the verdict is wrong. (When it does not,
/// the verdict stands unchecked.)
pub fn check_infeasible(log: &EventLog, index: &LogIndex, constraints: &str) -> Result<(), String> {
    let spec = ConstraintSet::parse(constraints).map_err(|e| format!("constraints: {e}"))?;
    let compiled = CompiledConstraintSet::compile_with(&spec, log, Segmenter::RepeatSplit)
        .map_err(|e| format!("constraints: {e}"))?;
    let ctx = EvalContext::new(log, index);
    let singletons = Grouping::singletons(log);
    if singletons.iter().all(|g| compiled.holds(g, &ctx))
        && compiled.group_count_ok(singletons.len())
    {
        return Err("reported infeasible, but the all-singleton grouping is feasible".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecco_core::{CandidateStrategy, Gecco};

    fn feasible(groups: usize, distance: f64, proven: bool, digest: u64) -> Summary {
        Summary { feasible: true, groups, distance_bits: distance.to_bits(), proven, digest }
    }

    #[test]
    fn pins_round_trip_through_their_text_form() {
        let summary = feasible(4, 37.0 / 12.0, true, 0xdead_beef);
        let line = summary.pin_line("dense");
        let text: &'static str = Box::leak(format!("# comment\n{line}\n").into_boxed_str());
        let pins = parse_pins(text).unwrap();
        assert_eq!(pins, vec![Pin { workload: "dense", summary }]);
        assert!(parse_pins("dense 1 4").is_err());
        assert!(parse_pins("dense 2 4 0 1 0").is_err());
    }

    #[test]
    fn proven_results_must_match_their_pin_exactly() {
        let pin = feasible(4, 3.0, true, 7);
        assert_eq!(check_pin(&pin, &pin), Ok(()));
        assert!(check_pin(&pin, &feasible(5, 3.0, true, 7)).is_err());
        assert!(check_pin(&pin, &feasible(4, 2.999_999_999_999, true, 7)).is_err());
        assert!(check_pin(&pin, &feasible(4, 3.0, true, 8)).is_err());
        assert!(check_pin(&pin, &Summary::INFEASIBLE).is_err());
        assert_eq!(check_pin(&Summary::INFEASIBLE, &Summary::INFEASIBLE), Ok(()));
    }

    #[test]
    fn budget_cut_results_may_beat_but_not_exceed_the_pin() {
        let pin = feasible(6, 10.0, false, 1);
        assert_eq!(check_pin(&pin, &feasible(7, 9.5, false, 2)), Ok(()));
        assert_eq!(check_pin(&pin, &feasible(5, 9.0, true, 3)), Ok(()));
        assert!(check_pin(&pin, &feasible(6, 10.5, false, 1)).is_err());
        // A proven pin with an unproven result: still no worse than the pin.
        let proven = feasible(6, 10.0, true, 1);
        assert!(check_pin(&proven, &feasible(6, 10.25, false, 1)).is_err());
    }

    #[test]
    fn grouping_checks_accept_the_pipeline_and_reject_tampering() {
        let log = gecco_datagen::running_example();
        let index = LogIndex::build(&log);
        let dsl = "size(g) <= 3;";
        let outcome = Gecco::new(&log)
            .constraints(ConstraintSet::parse(dsl).unwrap())
            .candidates(CandidateStrategy::DfgUnbounded)
            .run()
            .unwrap();
        let result = outcome.expect_abstracted();
        let (grouping, distance) = (result.grouping(), result.distance());
        assert_eq!(check_grouping(&log, &index, dsl, grouping, distance), Ok(()));
        // One ulp off the pipeline's distance.
        let nudged = f64::from_bits(distance.to_bits() + 1);
        assert!(check_grouping(&log, &index, dsl, grouping, nudged).is_err());
        // A tighter size bound than the grouping was built for.
        let largest = grouping.iter().map(|g| g.len()).max().unwrap();
        let tighter = format!("size(g) <= {};", largest - 1);
        assert!(check_grouping(&log, &index, &tighter, grouping, distance).is_err());
        // Dropping a group breaks the exact cover.
        let partial = Grouping::new(grouping.groups()[1..].to_vec());
        assert!(check_grouping(&log, &index, dsl, &partial, distance).is_err());
    }

    #[test]
    fn infeasible_verdicts_fail_when_singletons_are_feasible() {
        let log = gecco_datagen::running_example();
        let index = LogIndex::build(&log);
        let err = check_infeasible(&log, &index, "size(g) <= 3;").unwrap_err();
        assert!(err.contains("singleton"), "{err}");
        // Singletons violate a lower size bound, so the verdict is not
        // contradicted.
        assert_eq!(check_infeasible(&log, &index, "size(g) >= 2;"), Ok(()));
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
