//! The declarative study layer: one `key=value` config describes a
//! `scenarios × controllers × tilings × seeds` matrix of one experiment
//! family; [`StudyConfig::cases`] expands it to a deterministic case
//! list that `bench::study` fans out over the worker pool, judges, and
//! renders.
//!
//! Config format (DESIGN.md §12): flat `key=value` text parsed by the
//! in-repo [`KvMap`], list values `+`-separated (commas and whitespace
//! are KV separators). Keys: `name`, `family` (`fault` | `mobility` |
//! `arena`), `scenarios`, `controllers` (fault and arena: any of
//! `fbcc`, `gcc`, `occ`), `tilings` (fault: optional, arena: required;
//! any of `roi`, `pano`, `ghosh`), `seeds` (count), `base_seed`,
//! `seconds`, `threshold` (A-vs-B drift fraction). Unknown keys are
//! errors — a typo must not silently run the default matrix.
//!
//! The five checked-in presets (`studies/*.study`) are embedded at
//! compile time and registered in the same [`PresetInfo`] vocabulary as
//! the fault/mobility presets, so `reproduce --list` enumerates them
//! and unknown-study errors share the registry wording.

use poi360_lte::scenario::{
    unknown_preset_error, unknown_scenario_error, FaultScenario, MobilityScenario, PresetInfo,
};
use poi360_sim::json::{FromKv, KvMap};

/// Which experiment family a study drives. The family selects the
/// case runner, the judge, and the report renderer in `bench::study`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StudyFamily {
    /// Single-cell fault scenarios (`FaultScenario` presets plus the
    /// synthetic `baseline` = quiet cell, empty fault plan), judged on
    /// the fault suite's recovery invariants.
    Fault,
    /// Hex-grid mobility scenarios (`MobilityScenario` presets), judged
    /// on handover conservation, gap, and coverage invariants.
    Mobility,
    /// The controller × tiling league: every pairing runs a shared-cell
    /// quality leg plus one fault leg per scenario.
    Arena,
}

impl StudyFamily {
    /// Stable lowercase name used in configs and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            StudyFamily::Fault => "fault",
            StudyFamily::Mobility => "mobility",
            StudyFamily::Arena => "arena",
        }
    }

    fn parse(s: &str) -> Result<StudyFamily, String> {
        match s {
            "fault" => Ok(StudyFamily::Fault),
            "mobility" => Ok(StudyFamily::Mobility),
            "arena" => Ok(StudyFamily::Arena),
            other => {
                Err(format!("unknown study family {other:?} (expected fault, mobility or arena)"))
            }
        }
    }
}

/// The rate controllers a study may race: config name and one-line
/// description. `bench::study` maps each name onto its
/// `RateControlKind`.
pub const CONTROLLERS: [(&str, &str); 3] = [
    ("fbcc", "POI360's firmware-buffer-aware control"),
    ("gcc", "stock WebRTC delay-gradient control"),
    ("occ", "PHY-assisted grant/backlog control"),
];

/// The tiling policies a study may race (`roi` is the paper's
/// distance-based POI360 policy; `pano` and `ghosh` are the related-work
/// modulations in `video::perceptual`). `bench::study` maps each name
/// onto its `CompressionScheme`.
pub const TILINGS: [(&str, &str); 3] = [
    ("roi", "POI360 distance-based compression matrix"),
    ("pano", "Pano-style quality-sensitivity weighting"),
    ("ghosh", "Ghosh-style per-tile bitrate optimization"),
];

/// Reject a name missing from a name table, listing the valid set.
fn check_name(kind: &str, name: &str, table: &[(&str, &str)]) -> Result<(), String> {
    if table.iter().any(|row| row.0 == name) {
        Ok(())
    } else {
        let valid: Vec<&str> = table.iter().map(|row| row.0).collect();
        Err(unknown_scenario_error(kind, name, &valid))
    }
}

/// The synthetic no-fault scenario every fault or arena study may
/// include: a quiet cell with an empty fault plan (byte-identical to an
/// untraced clean run by the PR 4 composition rule). Its recovery
/// verdict reads `n/a` and never fails.
pub const BASELINE_SCENARIO: &str = "baseline";

/// The scenario name of an arena pairing's quality leg: a two-flow
/// shared-cell ensemble scored on ROI PSNR, MOS, freeze, and fairness.
/// Never listed in a config; [`StudyConfig::cases`] adds it per pairing.
pub const QUALITY_LEG: &str = "quality";

/// A declarative study: the full matrix, before expansion.
#[derive(Clone, Debug, PartialEq)]
pub struct StudyConfig {
    /// Study name (artifact file names, report header).
    pub name: String,
    /// Which experiment family the scenarios come from.
    pub family: StudyFamily,
    /// Scenario preset names (fault and arena also accept `baseline`).
    pub scenarios: Vec<String>,
    /// Rate-controller names (empty for mobility, where the grid
    /// driver owns rate control).
    pub controllers: Vec<String>,
    /// Tiling-policy names (empty = the default POI360 scheme, and the
    /// case labels carry no tiling segment).
    pub tilings: Vec<String>,
    /// Seeds per matrix cell.
    pub seeds: u64,
    /// First seed; repetition `r` runs at `base_seed + r`.
    pub base_seed: u64,
    /// Run length per case, seconds.
    pub seconds: u64,
    /// A-vs-B drift threshold as a fraction (0.25 = flag deltas >25%).
    pub threshold: f64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            name: "study".into(),
            family: StudyFamily::Fault,
            scenarios: Vec::new(),
            controllers: Vec::new(),
            tilings: Vec::new(),
            seeds: 3,
            base_seed: 1,
            seconds: 0,
            threshold: 0.25,
        }
    }
}

fn split_list(v: &str) -> Vec<String> {
    v.split('+').filter(|s| !s.is_empty()).map(str::to_string).collect()
}

impl FromKv for StudyConfig {
    fn from_kv(kv: &KvMap) -> Result<Self, String> {
        const KNOWN: [&str; 9] = [
            "name",
            "family",
            "scenarios",
            "controllers",
            "tilings",
            "seeds",
            "base_seed",
            "seconds",
            "threshold",
        ];
        for key in kv.keys() {
            if !KNOWN.contains(&key) {
                return Err(format!(
                    "unknown study key {key:?} (expected one of: {})",
                    KNOWN.join(", ")
                ));
            }
        }
        let mut cfg = StudyConfig::default();
        if let Some(name) = kv.get("name") {
            cfg.name = name.to_string();
        }
        if let Some(family) = kv.get("family") {
            cfg.family = StudyFamily::parse(family)?;
        }
        if let Some(scenarios) = kv.get("scenarios") {
            cfg.scenarios = split_list(scenarios);
        }
        if let Some(controllers) = kv.get("controllers") {
            cfg.controllers = split_list(controllers);
        }
        if let Some(tilings) = kv.get("tilings") {
            cfg.tilings = split_list(tilings);
        }
        if let Some(seeds) = kv.get_parsed("seeds")? {
            cfg.seeds = seeds;
        }
        if let Some(base_seed) = kv.get_parsed("base_seed")? {
            cfg.base_seed = base_seed;
        }
        if let Some(seconds) = kv.get_parsed("seconds")? {
            cfg.seconds = seconds;
        }
        if let Some(threshold) = kv.get_parsed("threshold")? {
            cfg.threshold = threshold;
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// One expanded run of a study matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct StudyCase {
    /// Scenario preset name, `baseline`, or [`QUALITY_LEG`].
    pub scenario: String,
    /// Controller name (`None` for mobility cases).
    pub rc: Option<String>,
    /// Tiling name (`None` when the study lists no tilings).
    pub tiling: Option<String>,
    /// Seed this case runs at.
    pub seed: u64,
    /// Stable case label, also the trace `src` tag of single-session
    /// cases: `scenario[.rc][.tiling].s<seed>`.
    pub label: String,
}

impl StudyConfig {
    /// Reject configs that could not run: empty or unknown scenarios,
    /// controllers or tilings on the wrong family, unknown names, zero
    /// seeds/seconds, broken thresholds.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("study name must not be empty".into());
        }
        if self.scenarios.is_empty() {
            return Err("study has no scenarios".into());
        }
        let family = self.family.as_str();
        for s in &self.scenarios {
            match self.family {
                StudyFamily::Fault | StudyFamily::Arena => {
                    if s != BASELINE_SCENARIO && FaultScenario::by_name(s).is_none() {
                        let mut valid = vec![BASELINE_SCENARIO];
                        valid.extend(FaultScenario::all().iter().map(|f| f.name));
                        return Err(unknown_scenario_error("fault", s, &valid));
                    }
                }
                StudyFamily::Mobility => {
                    if MobilityScenario::by_name(s).is_none() {
                        return Err(unknown_preset_error("mobility", s));
                    }
                }
            }
        }
        if self.family == StudyFamily::Mobility {
            for (key, list) in [("controllers", &self.controllers), ("tilings", &self.tilings)] {
                if !list.is_empty() {
                    return Err(format!(
                        "mobility study takes no {key} (the grid driver owns them)"
                    ));
                }
            }
        } else {
            if self.controllers.is_empty() {
                return Err(format!(
                    "{family} study needs controllers (one or more of: {})",
                    CONTROLLERS.map(|row| row.0).join(", ")
                ));
            }
            if self.family == StudyFamily::Arena && self.tilings.is_empty() {
                return Err(format!(
                    "arena study needs tilings (one or more of: {})",
                    TILINGS.map(|row| row.0).join(", ")
                ));
            }
        }
        for c in &self.controllers {
            check_name("controller", c, &CONTROLLERS)?;
        }
        for t in &self.tilings {
            check_name("tiling", t, &TILINGS)?;
        }
        let mut dedup = self.scenarios.clone();
        dedup.sort();
        dedup.dedup();
        if dedup.len() != self.scenarios.len() {
            return Err("duplicate scenario in study".into());
        }
        if self.seeds == 0 {
            return Err("study needs seeds >= 1".into());
        }
        if self.seconds == 0 {
            return Err("study needs seconds >= 1".into());
        }
        if !(self.threshold > 0.0 && self.threshold.is_finite()) {
            return Err("threshold must be a positive fraction".into());
        }
        Ok(())
    }

    /// Expand the matrix in deterministic order. Fault and mobility
    /// studies are scenario-major, then controller, then tiling, then
    /// repetition (`seed = base_seed + r`). Arena studies are
    /// pairing-major (controller, then tiling), then leg — the quality
    /// leg first, then each scenario — then repetition, so one pairing's
    /// cases sit together in the artifact. This order is the contract
    /// `bench::study` relies on for input-ordered, byte-deterministic
    /// aggregation.
    pub fn cases(&self) -> Vec<StudyCase> {
        fn opts(list: &[String]) -> Vec<Option<&str>> {
            if list.is_empty() {
                vec![None]
            } else {
                list.iter().map(|s| Some(s.as_str())).collect()
            }
        }
        let (rcs, tilings) = (opts(&self.controllers), opts(&self.tilings));
        let mut cells: Vec<(&str, Option<&str>, Option<&str>)> = Vec::new();
        if self.family == StudyFamily::Arena {
            for &rc in &rcs {
                for &t in &tilings {
                    cells.push((QUALITY_LEG, rc, t));
                    cells.extend(self.scenarios.iter().map(|s| (s.as_str(), rc, t)));
                }
            }
        } else {
            for s in &self.scenarios {
                for &rc in &rcs {
                    cells.extend(tilings.iter().map(|&t| (s.as_str(), rc, t)));
                }
            }
        }
        let mut out = Vec::new();
        for (scenario, rc, tiling) in cells {
            for r in 0..self.seeds {
                let seed = self.base_seed + r;
                let mut label = scenario.to_string();
                for part in [rc, tiling].into_iter().flatten() {
                    label.push('.');
                    label.push_str(part);
                }
                label.push_str(&format!(".s{seed}"));
                out.push(StudyCase {
                    scenario: scenario.to_string(),
                    rc: rc.map(str::to_string),
                    tiling: tiling.map(str::to_string),
                    seed,
                    label,
                });
            }
        }
        out
    }

    /// Cells of the matrix (`scenario × controller × tiling`, pooled
    /// across seeds), in case order.
    pub fn groups(&self) -> Vec<(String, Option<String>, Option<String>)> {
        let mut out = Vec::new();
        for case in self.cases() {
            let key = (case.scenario, case.rc, case.tiling);
            if !out.contains(&key) {
                out.push(key);
            }
        }
        out
    }
}

/// The checked-in study presets: registry row + config text, embedded
/// at compile time.
pub fn study_presets() -> Vec<(PresetInfo, &'static str)> {
    let row = |name, what| PresetInfo { family: "study", name, what };
    vec![
        (
            row("cc_matrix", "FBCC vs GCC x {baseline,rlf,flash_crowd} x 3 seeds"),
            include_str!("../studies/cc_matrix.study"),
        ),
        (
            row("ho_tails", "handover-gap tails across mobility presets x 3 seeds"),
            include_str!("../studies/ho_tails.study"),
        ),
        (
            row("faults", "every fault preset x {fbcc,gcc,occ}: recovery verdicts"),
            include_str!("../studies/faults.study"),
        ),
        (
            row("mobility", "convoy handover invariants + per-flow ledger x 3 seeds"),
            include_str!("../studies/mobility.study"),
        ),
        (
            row("arena", "controller x tiling league: quality legs + fault verdicts"),
            include_str!("../studies/arena.study"),
        ),
    ]
}

/// Study, controller, and tiling rows for the unified `reproduce --list`
/// registry.
pub fn registry() -> Vec<PresetInfo> {
    let mut out: Vec<PresetInfo> = study_presets().into_iter().map(|(info, _)| info).collect();
    for (name, what) in CONTROLLERS {
        out.push(PresetInfo { family: "controller", name, what });
    }
    for (name, what) in TILINGS {
        out.push(PresetInfo { family: "tiling", name, what });
    }
    out
}

/// Parse a preset by name (`None` for names not in the registry).
pub fn by_name(name: &str) -> Option<StudyConfig> {
    study_presets().into_iter().find(|(info, _)| info.name == name).map(|(info, text)| {
        StudyConfig::from_kv_str(text)
            .unwrap_or_else(|e| panic!("checked-in study {} is invalid: {e}", info.name))
    })
}

/// Error text for an unknown study that names the valid set, phrased
/// through the same formatter as the fault/mobility families.
pub fn unknown_study_error(got: &str) -> String {
    let valid: Vec<&str> = study_presets().into_iter().map(|(p, _)| p.name).collect();
    unknown_scenario_error("study", got, &valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_presets_parse_and_validate() {
        let cc = by_name("cc_matrix").expect("cc_matrix registered");
        assert_eq!(cc.family, StudyFamily::Fault);
        assert_eq!(cc.scenarios, ["baseline", "rlf", "flash_crowd"]);
        assert_eq!(cc.controllers, ["fbcc", "gcc"]);
        assert!(cc.tilings.is_empty());
        assert_eq!((cc.seeds, cc.base_seed, cc.seconds), (3, 1, 24));
        assert_eq!(cc.cases().len(), 18, "2 controllers x 3 scenarios x 3 seeds");

        let ho = by_name("ho_tails").expect("ho_tails registered");
        assert_eq!(ho.family, StudyFamily::Mobility);
        assert!(ho.controllers.is_empty());
        assert_eq!(ho.cases().len(), 9);

        let faults = by_name("faults").expect("faults registered");
        assert_eq!(faults.family, StudyFamily::Fault);
        let every: Vec<&str> = FaultScenario::all().iter().map(|f| f.name).collect();
        assert_eq!(faults.scenarios, every, "every fault preset, registry order");
        assert_eq!(faults.controllers, ["fbcc", "gcc", "occ"]);
        assert_eq!(faults.cases().len(), 21, "7 presets x 3 controllers x 1 seed");

        let mobility = by_name("mobility").expect("mobility registered");
        assert_eq!(mobility.family, StudyFamily::Mobility);
        assert_eq!(mobility.scenarios, ["convoy"]);
        assert_eq!((mobility.seeds, mobility.base_seed, mobility.seconds), (3, 1, 30));
        assert_eq!(mobility.cases().len(), 3);

        let arena = by_name("arena").expect("arena registered");
        assert_eq!(arena.family, StudyFamily::Arena);
        assert_eq!(arena.scenarios, ["rlf", "diag_freeze", "flash_crowd"]);
        assert_eq!(arena.controllers, ["fbcc", "gcc", "occ"]);
        assert_eq!(arena.tilings, ["roi", "pano", "ghosh"]);
        assert_eq!(arena.cases().len(), 36, "9 pairings x (quality + 3 fault legs) x 1 seed");
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn case_expansion_is_scenario_major_with_stable_labels() {
        let cc = by_name("cc_matrix").unwrap();
        let cases = cc.cases();
        assert_eq!(cases[0].label, "baseline.fbcc.s1");
        assert_eq!(cases[1].label, "baseline.fbcc.s2");
        assert_eq!(cases[3].label, "baseline.gcc.s1");
        assert_eq!(cases[6].label, "rlf.fbcc.s1");
        assert_eq!(cases[17].label, "flash_crowd.gcc.s3");
        assert_eq!(cc.groups().len(), 6, "groups follow case order: one per scenario x controller");
        assert_eq!(cc.groups()[0], ("baseline".into(), Some("fbcc".into()), None));
    }

    #[test]
    fn arena_expansion_is_pairing_major_with_the_quality_leg_first() {
        let arena = by_name("arena").unwrap();
        let labels: Vec<String> = arena.cases().into_iter().map(|c| c.label).collect();
        assert_eq!(
            labels[..5],
            [
                "quality.fbcc.roi.s1",
                "rlf.fbcc.roi.s1",
                "diag_freeze.fbcc.roi.s1",
                "flash_crowd.fbcc.roi.s1",
                "quality.fbcc.pano.s1"
            ]
        );
        assert_eq!(labels[35], "flash_crowd.occ.ghosh.s1");
    }

    #[test]
    fn unknown_keys_scenarios_controllers_and_tilings_are_rejected() {
        let err = StudyConfig::from_kv_str("name=x family=fault scenariox=rlf").unwrap_err();
        assert!(err.contains("unknown study key"), "{err}");

        let err = StudyConfig::from_kv_str(
            "name=x family=fault scenarios=warp_core controllers=fbcc seconds=6",
        )
        .unwrap_err();
        assert!(err.contains("unknown fault scenario \"warp_core\""), "{err}");
        assert!(err.contains("baseline, rlf"), "valid set named: {err}");

        let err =
            StudyConfig::from_kv_str("name=x family=fault scenarios=rlf controllers=tcp seconds=6")
                .unwrap_err();
        assert_eq!(err, "unknown controller scenario \"tcp\" (expected one of: fbcc, gcc, occ)");

        let err = StudyConfig::from_kv_str(
            "name=x family=arena scenarios=rlf controllers=fbcc tilings=tiles seconds=6",
        )
        .unwrap_err();
        assert_eq!(err, "unknown tiling scenario \"tiles\" (expected one of: roi, pano, ghosh)");

        let err =
            StudyConfig::from_kv_str("name=x family=fault scenarios=rlf seconds=6").unwrap_err();
        assert_eq!(err, "fault study needs controllers (one or more of: fbcc, gcc, occ)");

        let err = StudyConfig::from_kv_str(
            "name=x family=arena scenarios=rlf controllers=fbcc seconds=6",
        )
        .unwrap_err();
        assert!(err.contains("arena study needs tilings"), "{err}");

        let err = StudyConfig::from_kv_str(
            "name=x family=mobility scenarios=convoy controllers=fbcc seconds=6",
        )
        .unwrap_err();
        assert!(err.contains("mobility study takes no controllers"), "{err}");

        let err = StudyConfig::from_kv_str(
            "name=x family=mobility scenarios=convoy tilings=roi seconds=6",
        )
        .unwrap_err();
        assert!(err.contains("mobility study takes no tilings"), "{err}");

        let err = StudyConfig::from_kv_str("name=x family=fault scenarios=rlf controllers=fbcc")
            .unwrap_err();
        assert!(err.contains("seconds"), "{err}");
    }

    #[test]
    fn name_tables_are_listed_in_the_registry() {
        let families: Vec<&str> = registry().iter().map(|p| p.family).collect();
        assert_eq!(families.iter().filter(|&&f| f == "controller").count(), 3);
        assert_eq!(families.iter().filter(|&&f| f == "tiling").count(), 3);
    }

    #[test]
    fn unknown_study_error_names_the_registry() {
        let err = unknown_study_error("cc_matirx");
        assert_eq!(
            err,
            "unknown study scenario \"cc_matirx\" (expected one of: cc_matrix, ho_tails, \
             faults, mobility, arena)"
        );
    }
}
