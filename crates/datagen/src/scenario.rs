//! The synthetic UMETRICS/USDA scenario generator.
//!
//! Builds the seven raw tables of Figure 2 (with the paper's schemas and —
//! for the matching-relevant tables — the paper's row counts), a withheld
//! "extra data" batch of award records (Section 10), and the hidden
//! [`GroundTruth`]. Every noise channel the case study's decisions hinge on
//! is reproduced with a calibrated rate:
//!
//! - federal `YYYY-#####-#####` vs state `WIS#####` identifier formats,
//! - USDA rows with missing award numbers (the M2 title-matching cases),
//! - UMETRICS titles in UPPER CASE vs USDA Title Case (the Section 9
//!   case-sensitivity bug), plus occasional typos,
//! - generic shared titles ("Lab Supplies"),
//! - one-to-many annual USDA records per award,
//! - USDA filler rows cloning a real title plus an `NC/NRSP` multistate
//!   marker (discrepancy D1) or belonging to other universities.

use crate::config::ScenarioConfig;
use crate::truth::GroundTruth;
use crate::vocab;
use em_table::{DataType, Date, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A generated scenario: raw tables plus hidden truth.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// `UMETRICSAwardAggMatching` — the initial batch.
    pub award_agg: Table,
    /// The withheld award records delivered later (same schema).
    pub extra_award_agg: Table,
    /// `UMETRICSEmployeesMatching`.
    pub employees: Table,
    /// `UMETRICSObjectCodesMatching`.
    pub object_codes: Table,
    /// `UMETRICSOrgUnitsMatching`.
    pub org_units: Table,
    /// `UMETRICSSubAwardMatching`.
    pub sub_awards: Table,
    /// `UMETRICSVendorMatching`.
    pub vendors: Table,
    /// `USDAAwardMatching` (78 columns).
    pub usda: Table,
    /// The hidden true match set.
    pub truth: GroundTruth,
    /// The configuration that produced this scenario.
    pub config: ScenarioConfig,
}

/// One project in the ground-truth universe (internal).
struct Project {
    unique_award_number: String,
    state_number: String,
    federal_number: Option<String>,
    title: String,
    director: (String, String), // (first, last)
    employees: Vec<(String, String)>,
    start: Date,
    end: Date,
    org_unit: usize,
    account: i64,
    in_usda: bool,
    n_usda_records: usize,
    extra: bool,
}

#[allow(clippy::disallowed_methods)] // data generation, not a matching hot path
fn title_case(s: &str) -> String {
    s.split_whitespace()
        .map(|w| {
            let mut c = w.chars();
            match c.next() {
                Some(first) => first.to_uppercase().collect::<String>() + &c.as_str().to_lowercase(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Swaps two adjacent characters in one word — the small-typo channel.
fn inject_typo(s: &str, rng: &mut StdRng) -> String {
    let words: Vec<&str> = s.split_whitespace().collect();
    if words.is_empty() {
        return s.to_string();
    }
    let wi = rng.gen_range(0..words.len());
    let mut out = Vec::with_capacity(words.len());
    for (i, w) in words.iter().enumerate() {
        if i == wi && w.chars().count() >= 3 {
            let chars: Vec<char> = w.chars().collect();
            let k = rng.gen_range(0..chars.len() - 1);
            let mut c = chars.clone();
            c.swap(k, k + 1);
            out.push(c.into_iter().collect::<String>());
        } else {
            out.push(w.to_string());
        }
    }
    out.join(" ")
}

fn random_date(rng: &mut StdRng, year_lo: i32, year_hi: i32) -> Date {
    Date::new(
        rng.gen_range(year_lo..=year_hi),
        rng.gen_range(1..=12),
        rng.gen_range(1..=28),
    )
    .expect("in-range components")
}

fn shift_years(d: Date, years: i32) -> Date {
    Date::new(d.year + years, d.month, d.day).expect("month/day unchanged")
}

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

fn person(rng: &mut StdRng) -> (String, String) {
    (
        pick(rng, vocab::FIRST_NAMES).to_string(),
        pick(rng, vocab::LAST_NAMES).to_string(),
    )
}

fn full_name(p: &(String, String)) -> String {
    format!("{} {}", p.0, p.1)
}

/// USDA-style director rendering: `Last, F.` (Figure 4's
/// "Kermicle, J.L" / "Hammer, R" flavor).
fn director_name(p: &(String, String)) -> String {
    format!("{}, {}.", p.1, p.0.chars().next().unwrap_or('X'))
}

fn gen_title(rng: &mut StdRng) -> String {
    let n = rng.gen_range(4..=9);
    let mut words = Vec::with_capacity(n);
    let mut used = std::collections::HashSet::new();
    while words.len() < n {
        let w = pick(rng, vocab::TITLE_WORDS);
        if used.insert(w) {
            words.push(w);
        }
    }
    title_case(&words.join(" "))
}

fn gen_projects(cfg: &ScenarioConfig, rng: &mut StdRng) -> Vec<Project> {
    let n = cfg.n_projects();
    let mut projects = Vec::with_capacity(n);
    for idx in 0..n {
        let start = random_date(rng, 1997, 2012);
        let duration = rng.gen_range(1..=5);
        let is_federal = rng.gen_bool(cfg.frac_federal);
        let state_number = format!("WIS{:05}", 1000 + idx);
        let federal_number = is_federal.then(|| {
            format!(
                "{}-{:05}-{:05}",
                start.year,
                rng.gen_range(10_000..100_000),
                rng.gen_range(10_000..100_000)
            )
        });
        let program_code = format!("10.{:03}", rng.gen_range(100..400));
        let suffix = federal_number.clone().unwrap_or_else(|| state_number.clone());
        let generic = rng.gen_bool(cfg.p_generic_title);
        let title = if generic {
            pick(rng, vocab::GENERIC_TITLES).to_string()
        } else {
            gen_title(rng)
        };
        let director = person(rng);
        // Stale staff lists: the director is sometimes absent from the
        // employees table, weakening the name-overlap matching signal (the
        // paper's M3 hint is real but unreliable).
        let mut employees = if rng.gen_bool(cfg.p_director_unlisted) {
            vec![person(rng)]
        } else {
            vec![director.clone()]
        };
        for _ in 0..rng.gen_range(0..6) {
            employees.push(person(rng));
        }
        let in_usda = rng.gen_bool(cfg.p_in_usda);
        let roll: f64 = rng.gen();
        let n_usda_records = if roll < cfg.p_three_records {
            3
        } else if roll < cfg.p_three_records + cfg.p_two_records {
            2
        } else {
            1
        };
        projects.push(Project {
            unique_award_number: format!("{program_code} {suffix}"),
            state_number,
            federal_number,
            title,
            director,
            employees,
            start,
            end: shift_years(start, duration),
            org_unit: rng.gen_range(0..vocab::ORG_UNITS.len()),
            account: 500_000 + idx as i64,
            in_usda,
            n_usda_records,
            extra: false, // assigned below
        });
    }
    // Sibling projects: a continuation re-awarded under a new number —
    // same title, contemporaneous dates, different identifiers. Cross-pairs
    // between a project and its sibling's USDA records are the D2 false
    // positives the negative rule later repairs.
    for i in 1..n {
        if rng.gen_bool(cfg.p_sibling_title) {
            let (title, year) = (projects[i - 1].title.clone(), projects[i - 1].start.year);
            let month = rng.gen_range(1..=12);
            let day = rng.gen_range(1..=28);
            let duration = rng.gen_range(1..=5);
            let p = &mut projects[i];
            p.title = title;
            p.start = Date::new(year, month, day).expect("in-range components");
            p.end = shift_years(p.start, duration);
        }
    }
    // Withhold a random batch as the Section 10 "extra data".
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    for &i in order.iter().take(cfg.n_extra_awards) {
        projects[i].extra = true;
    }
    projects
}

fn award_agg_schema() -> Schema {
    Schema::of(&[
        ("UniqueAwardNumber", DataType::Str),
        ("AwardTitle", DataType::Str),
        ("FundingSource", DataType::Str),
        ("FirstTransDate", DataType::Date),
        ("LastTransDate", DataType::Date),
        ("RecipientAccountNumber", DataType::Int),
        ("TotalOverheadCharged", DataType::Float),
        ("TotalExpenditures", DataType::Float),
        ("NumberOfTransactions", DataType::Int),
        ("DataFileYearEarliest", DataType::Int),
        ("DataFileYearLatest", DataType::Int),
        ("SubOrgUnit", DataType::Str),
        ("CampusID", DataType::Int),
    ])
}

fn award_agg_row(p: &Project, rng: &mut StdRng) -> Vec<Value> {
    let expenditures = rng.gen_range(20_000.0..2_000_000.0f64).round();
    vec![
        Value::Str(p.unique_award_number.clone()),
        Value::Str(p.title.to_uppercase()), // UMETRICS titles arrive in caps
        Value::Str("USDA".to_string()),
        Value::Date(p.start),
        Value::Date(p.end),
        Value::Int(p.account),
        Value::Float((expenditures * 0.3).round()),
        Value::Float(expenditures),
        Value::Int(rng.gen_range(5..400)),
        Value::Int(p.start.year as i64),
        Value::Int(p.end.year as i64),
        Value::Str(vocab::ORG_UNITS[p.org_unit].to_string()),
        Value::Int(1001),
    ]
}

fn usda_schema() -> Schema {
    let mut cols = vec![
        ("AccessionNumber".to_string(), DataType::Int),
        ("ProjectTitle".to_string(), DataType::Str),
        ("SponsoringAgency".to_string(), DataType::Str),
        ("FundingMechanism".to_string(), DataType::Str),
        ("AwardNumber".to_string(), DataType::Str),
        ("InitialAwardFiscalYear".to_string(), DataType::Int),
        ("RecipientOrganization".to_string(), DataType::Str),
        ("RecipientDUNS".to_string(), DataType::Int),
        ("ProjectDirector".to_string(), DataType::Str),
        ("MultistateProjectNumber".to_string(), DataType::Str),
        ("ProjectNumber".to_string(), DataType::Str),
        ("ProjectStartDate".to_string(), DataType::Date),
        ("ProjectEndDate".to_string(), DataType::Date),
        ("ProjectStartFiscalYear".to_string(), DataType::Int),
        (
            "Financial: USDA Contracts, Grants, Coop Agmt".to_string(),
            DataType::Float,
        ),
    ];
    for i in cols.len()..78 {
        cols.push((format!("ExtraCol{:02}", i - 14), DataType::Float));
    }
    Schema::new(
        cols.into_iter()
            .map(|(n, t)| em_table::Column::new(n, t))
            .collect(),
    )
    .expect("unique generated names")
}

/// Pads a meaningful prefix out to 77 values (78 columns minus the
/// AccessionNumber the builder prepends) with sparse filler — mostly
/// missing, occasionally a small amount.
fn pad_usda(mut row: Vec<Value>, rng: &mut StdRng) -> Vec<Value> {
    while row.len() < 77 {
        if rng.gen_bool(0.1) {
            row.push(Value::Float(rng.gen_range(0.0..10_000.0f64).round()));
        } else {
            row.push(Value::Null);
        }
    }
    row
}

struct UsdaBuilder {
    table: Table,
    next_accession: i64,
}

impl UsdaBuilder {
    fn new() -> UsdaBuilder {
        UsdaBuilder { table: Table::new("USDAAwardMatching", usda_schema()), next_accession: 200_000 }
    }

    fn push(&mut self, row: Vec<Value>) -> i64 {
        let acc = self.next_accession;
        self.next_accession += 1;
        let mut full = vec![Value::Int(acc)];
        full.extend(row);
        self.table.push_row(full).expect("generated row fits schema");
        acc
    }
}

/// Builds the 14 meaningful values (after AccessionNumber) of a matched
/// USDA record for `p`, annual-report index `year_idx`.
fn usda_match_row(
    p: &Project,
    year_idx: i32,
    cfg: &ScenarioConfig,
    rng: &mut StdRng,
) -> Vec<Value> {
    let award_number = match &p.federal_number {
        Some(f) if rng.gen_bool(cfg.p_federal_award_present) => Value::Str(f.clone()),
        _ => Value::Null,
    };
    let project_number = if rng.gen_bool(cfg.p_project_number_present) {
        if rng.gen_bool(cfg.p_wrong_project_number) {
            // Clerical error: a different (comparable) state number. The
            // negative rule will flip this true match — the small recall
            // cost the paper observed in Section 12.
            Value::Str(format!("WIS{:05}", 80_000 + rng.gen_range(0..9_999)))
        } else {
            Value::Str(p.state_number.clone())
        }
    } else {
        Value::Null
    };
    let mut title = title_case(&p.title);
    if rng.gen_bool(cfg.p_usda_title_garbled) {
        // Clerk entered an unrelated description: this match escapes every
        // title-based blocking scheme and is only recoverable through the
        // Section 10 project-number rule.
        title = gen_title(rng);
    } else if rng.gen_bool(cfg.p_title_typo) {
        title = inject_typo(&title, rng);
    }
    // USDA reporting dates drift within the award year (Figure 5 shows
    // FirstTransDate 10/1/08 against ProjectStartDate 8/15/08), so the
    // generated dates agree on the year but not the day.
    let base = shift_years(p.start, year_idx);
    let start = Date::new(base.year, rng.gen_range(1..=12), rng.gen_range(1..=28))
        .expect("in-range components");
    let end_base = shift_years(p.end, year_idx.min(0));
    let end = Date::new(end_base.year, rng.gen_range(1..=12), rng.gen_range(1..=28))
        .expect("in-range components");
    let mechanism = if p.federal_number.is_some() {
        "Federal Formula/Competitive"
    } else {
        "State Funding"
    };
    let row = vec![
        Value::Str(title),
        Value::Str("State Agricultural Experiment Station".to_string()),
        Value::Str(mechanism.to_string()),
        award_number,
        Value::Int(start.year as i64),
        Value::Str(vocab::UW_RECIPIENT.to_string()),
        Value::Int(80_811_530),
        if rng.gen_bool(cfg.p_director_missing) {
            Value::Null
        } else {
            Value::Str(director_name(&p.director))
        },
        Value::Null, // MultistateProjectNumber
        project_number,
        Value::Date(start),
        Value::Date(end),
        Value::Int(start.year as i64),
        Value::Float(rng.gen_range(10_000.0..900_000.0f64).round()),
    ];
    pad_usda(row, rng)
}

/// A filler USDA row: either a multistate clone of a real title (the D1
/// trap) or an unrelated row from another university.
fn usda_filler_row(
    projects: &[Project],
    cfg: &ScenarioConfig,
    filler_idx: usize,
    rng: &mut StdRng,
) -> Vec<Value> {
    let is_clone = rng.gen_bool(cfg.p_filler_multistate_clone) && !projects.is_empty();
    let mut start = random_date(rng, 1997, 2012);
    let (title, recipient, project_number, multistate) = if is_clone {
        let src = &projects[rng.gen_range(0..projects.len())];
        let marker = pick(rng, vocab::MULTISTATE_MARKERS);
        // Multistate annual reports are contemporaneous with the cloned
        // project, so the date features cannot separate the pair either.
        start = Date::new(src.start.year, rng.gen_range(1..=12), rng.gen_range(1..=28))
            .expect("in-range components");
        (
            format!("{} {}", title_case(&src.title), marker),
            vocab::UW_RECIPIENT.to_string(),
            // A *different* state number: comparable-but-different with the
            // cloned project's — exactly what the negative rule catches.
            Value::Str(format!("WIS{:05}", 90_000 + filler_idx)),
            Value::Str(marker.to_string()),
        )
    } else {
        let federal = rng.gen_bool(0.5);
        let number = if federal {
            Value::Str(format!(
                "{}-{:05}-{:05}",
                start.year,
                rng.gen_range(10_000..100_000),
                rng.gen_range(10_000..100_000)
            ))
        } else {
            Value::Null
        };
        let _ = number; // filler award numbers assigned below
        (
            gen_title(rng),
            pick(rng, vocab::OTHER_RECIPIENTS).to_string(),
            Value::Null,
            Value::Null,
        )
    };
    // Filler rows may carry their own (non-matching) federal numbers.
    let award_number = if !is_clone && rng.gen_bool(0.4) {
        Value::Str(format!(
            "{}-{:05}-{:05}",
            start.year,
            rng.gen_range(10_000..100_000),
            rng.gen_range(10_000..100_000)
        ))
    } else {
        Value::Null
    };
    let director = person(rng);
    let row = vec![
        Value::Str(title),
        Value::Str("State Agricultural Experiment Station".to_string()),
        Value::Str("State Funding".to_string()),
        award_number,
        Value::Int(start.year as i64),
        Value::Str(recipient),
        Value::Int(rng.gen_range(10_000_000..99_999_999)),
        Value::Str(director_name(&director)),
        multistate,
        project_number,
        Value::Date(start),
        Value::Date(shift_years(start, rng.gen_range(1..5))),
        Value::Int(start.year as i64),
        Value::Float(rng.gen_range(10_000.0..900_000.0f64).round()),
    ];
    pad_usda(row, rng)
}

fn gen_employees(projects: &[&Project], cfg: &ScenarioConfig, rng: &mut StdRng) -> Table {
    let schema = Schema::of(&[
        ("UniqueAwardNumber", DataType::Str),
        ("PeriodStartDate", DataType::Date),
        ("PeriodEndDate", DataType::Date),
        ("RecipientAccountNumber", DataType::Int),
        ("DeidentifiedEmployeeIdNumber", DataType::Int),
        ("FullName", DataType::Str),
        ("OccupationalClassification", DataType::Str),
        ("JobTitle", DataType::Str),
        ("ObjectCode", DataType::Int),
        ("SOCCode", DataType::Str),
        ("FteStatus", DataType::Float),
        ("ProportionOfEarningsAllocated", DataType::Float),
        ("DataFileYear", DataType::Int),
    ]);
    let jobs = ["Professor", "Scientist", "Research Assistant", "Postdoc", "Technician"];
    let mut t = Table::new("UMETRICSEmployeesMatching", schema);
    let n_proj = projects.len();
    for r in 0..cfg.n_employees {
        let p = &projects[r % n_proj];
        let emp = &p.employees[(r / n_proj) % p.employees.len()];
        t.push_row(vec![
            Value::Str(p.unique_award_number.clone()),
            Value::Date(p.start),
            Value::Date(p.end),
            Value::Int(p.account),
            Value::Int(10_000 + r as i64),
            Value::Str(full_name(emp)),
            Value::Str("Research".to_string()),
            Value::Str(jobs[r % jobs.len()].to_string()),
            Value::Int(1100 + (r % 40) as i64),
            Value::Str(format!("19-{:04}", 1000 + (r % 90))),
            Value::Float(1.0),
            Value::Float(rng.gen_range(0.05..1.0f64)),
            Value::Int(p.start.year as i64),
        ])
        .expect("row fits schema");
    }
    t
}

fn gen_object_codes(cfg: &ScenarioConfig) -> Table {
    let schema = Schema::of(&[
        ("ObjectCode", DataType::Int),
        ("ObjectCodeText", DataType::Str),
        ("DataFileYear", DataType::Int),
    ]);
    let texts = ["Salaries", "Fringe Benefits", "Supplies", "Travel", "Equipment", "Tuition"];
    let mut t = Table::new("UMETRICSObjectCodesMatching", schema);
    for i in 0..cfg.n_object_codes {
        t.push_row(vec![
            Value::Int(1000 + i as i64),
            Value::Str(texts[i % texts.len()].to_string()),
            Value::Int(2008 + (i % 8) as i64),
        ])
        .expect("row fits schema");
    }
    t
}

fn gen_org_units(cfg: &ScenarioConfig) -> Table {
    let schema = Schema::of(&[
        ("CampusId", DataType::Int),
        ("SubOrgUnit", DataType::Str),
        ("CampusName", DataType::Str),
        ("SubOrgUnitName", DataType::Str),
        ("DataFileYear", DataType::Int),
    ]);
    let mut t = Table::new("UMETRICSOrgUnitsMatching", schema);
    for i in 0..cfg.n_org_units {
        let unit = vocab::ORG_UNITS[i % vocab::ORG_UNITS.len()];
        t.push_row(vec![
            Value::Int(1001),
            Value::Str(format!("{unit}-{}", i / vocab::ORG_UNITS.len())),
            Value::Str("UW-Madison".to_string()),
            Value::Str(unit.to_string()),
            Value::Int(2008 + (i % 8) as i64),
        ])
        .expect("row fits schema");
    }
    t
}

fn gen_sub_awards(projects: &[Project], cfg: &ScenarioConfig, rng: &mut StdRng) -> Table {
    let schema = Schema::of(&[
        ("UniqueAwardNumber", DataType::Str),
        ("Address", DataType::Str),
        ("BldgName", DataType::Str),
        ("City", DataType::Str),
        ("Country", DataType::Str),
        ("DUNS", DataType::Int),
        ("DomesticZipCode", DataType::Str),
        ("EIN", DataType::Int),
        ("ForeignZipCode", DataType::Str),
        ("ObjectCode", DataType::Int),
        ("OrgName", DataType::Str),
        ("OrganizationID", DataType::Int),
        ("POBox", DataType::Str),
        ("PeriodEndDate", DataType::Date),
        ("PeriodStartDate", DataType::Date),
        ("RecipientAccountNumber", DataType::Int),
        ("SrtName", DataType::Str),
        ("SrtNumber", DataType::Str),
        ("State", DataType::Str),
        ("StrName", DataType::Str),
        ("StrNumber", DataType::Str),
        ("SubAwardPaymentAmount", DataType::Float),
        ("DataFileYear", DataType::Int),
    ]);
    let mut t = Table::new("UMETRICSSubAwardMatching", schema);
    for r in 0..cfg.n_subawards {
        let p = &projects[r % projects.len()];
        t.push_row(vec![
            Value::Str(p.unique_award_number.clone()),
            Value::Str(format!("{} University Ave", 100 + r % 900)),
            Value::Null,
            Value::Str("Madison".to_string()),
            Value::Str("USA".to_string()),
            Value::Int(rng.gen_range(100_000_000..999_999_999)),
            Value::Str("53706".to_string()),
            Value::Int(rng.gen_range(10_000_000..99_999_999)),
            Value::Null,
            Value::Int(1200 + (r % 30) as i64),
            Value::Str(pick(rng, vocab::VENDOR_ORGS).to_string()),
            Value::Int(7000 + r as i64),
            Value::Null,
            Value::Date(p.end),
            Value::Date(p.start),
            Value::Int(p.account),
            Value::Null,
            Value::Null,
            Value::Str("WI".to_string()),
            Value::Str("University Ave".to_string()),
            Value::Str(format!("{}", 100 + r % 900)),
            Value::Float(rng.gen_range(1_000.0..250_000.0f64).round()),
            Value::Int(p.start.year as i64),
        ])
        .expect("row fits schema");
    }
    t
}

fn gen_vendors(projects: &[Project], cfg: &ScenarioConfig, rng: &mut StdRng) -> Table {
    let schema = Schema::of(&[
        ("UniqueAwardNumber", DataType::Str),
        ("PeriodStartDate", DataType::Date),
        ("PeriodEndDate", DataType::Date),
        ("RecipientAccountNumber", DataType::Int),
        ("ObjectCode", DataType::Int),
        ("OrganizationID", DataType::Int),
        ("EIN", DataType::Int),
        ("DUNS", DataType::Int),
        ("VendorPaymentAmount", DataType::Float),
        ("OrgName", DataType::Str),
        ("POBox", DataType::Str),
        ("BldgNum", DataType::Str),
        ("StrNumber", DataType::Str),
        ("StrName", DataType::Str),
        ("Address", DataType::Str),
        ("City", DataType::Str),
        ("State", DataType::Str),
        ("DomesticZipCode", DataType::Str),
        ("ForeignZipCode", DataType::Str),
        ("Country", DataType::Str),
        ("DataFileYear", DataType::Int),
    ]);
    let mut t = Table::new("UMETRICSVendorMatching", schema);
    for r in 0..cfg.n_vendors {
        let p = &projects[r % projects.len()];
        t.push_row(vec![
            Value::Str(p.unique_award_number.clone()),
            Value::Date(p.start),
            Value::Date(p.end),
            Value::Int(p.account),
            Value::Int(1300 + (r % 25) as i64),
            Value::Int(8000 + r as i64),
            Value::Int(rng.gen_range(10_000_000..99_999_999)),
            // Vendor DUNS deliberately disjoint from USDA recipient DUNS
            // (Section 6 step 3 found no value overlap).
            Value::Int(rng.gen_range(100_000_000..500_000_000)),
            Value::Float(rng.gen_range(50.0..60_000.0f64).round()),
            Value::Str(pick(rng, vocab::VENDOR_ORGS).to_string()),
            Value::Null,
            Value::Null,
            Value::Str(format!("{}", 1 + r % 999)),
            Value::Str("Main St".to_string()),
            Value::Str(format!("{} Main St", 1 + r % 999)),
            Value::Str("Madison".to_string()),
            Value::Str("WI".to_string()),
            Value::Str("53703".to_string()),
            Value::Null,
            Value::Str("USA".to_string()),
            Value::Int(p.start.year as i64),
        ])
        .expect("row fits schema");
    }
    t
}

impl Scenario {
    /// Generates a scenario from a configuration. Deterministic in
    /// `config.seed`.
    pub fn generate(config: ScenarioConfig) -> Result<Scenario, String> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let projects = gen_projects(&config, &mut rng);

        // UMETRICS award tables (initial + extra).
        let mut award_agg = Table::new("UMETRICSAwardAggMatching", award_agg_schema());
        let mut extra = Table::new("UMETRICSAwardAggExtra", award_agg_schema());
        for p in &projects {
            let row = award_agg_row(p, &mut rng);
            if p.extra {
                extra.push_row(row).expect("row fits schema");
            } else {
                award_agg.push_row(row).expect("row fits schema");
            }
        }

        // USDA: matched records first, then filler to the configured size.
        let mut truth = GroundTruth::default();
        let mut usda = UsdaBuilder::new();
        for p in &projects {
            if p.extra {
                truth.mark_extra(&p.unique_award_number);
            }
            if !p.in_usda {
                continue;
            }
            for year_idx in 0..p.n_usda_records {
                let row = usda_match_row(p, year_idx as i32, &config, &mut rng);
                let acc = usda.push(row);
                truth.add_match(&p.unique_award_number, &acc.to_string());
            }
        }
        let matched = usda.table.n_rows();
        if matched > config.n_usda {
            return Err(format!(
                "config produces {matched} matched USDA records but n_usda = {}",
                config.n_usda
            ));
        }
        for filler_idx in 0..config.n_usda - matched {
            let row = usda_filler_row(&projects, &config, filler_idx, &mut rng);
            usda.push(row);
        }

        Ok(Scenario {
            award_agg,
            extra_award_agg: extra,
            employees: {
                // Only the delivered (non-extra) awards have staff rows:
                // the initial delivery is internally consistent, and the
                // Section 10 extra batch arrives without employee data.
                let delivered: Vec<&Project> = projects.iter().filter(|p| !p.extra).collect();
                gen_employees(&delivered, &config, &mut rng)
            },
            object_codes: gen_object_codes(&config),
            org_units: gen_org_units(&config),
            sub_awards: gen_sub_awards(&projects, &config, &mut rng),
            vendors: gen_vendors(&projects, &config, &mut rng),
            usda: usda.table,
            truth,
            config,
        })
    }

    /// All seven raw tables with their paper names, for Figure 2.
    pub fn raw_tables(&self) -> Vec<&Table> {
        vec![
            &self.award_agg,
            &self.employees,
            &self.object_codes,
            &self.org_units,
            &self.sub_awards,
            &self.vendors,
            &self.usda,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        Scenario::generate(ScenarioConfig::small()).unwrap()
    }

    #[test]
    fn row_and_column_counts_match_config() {
        let s = small();
        let c = &s.config;
        assert_eq!(s.award_agg.n_rows(), c.n_awards);
        assert_eq!(s.extra_award_agg.n_rows(), c.n_extra_awards);
        assert_eq!(s.usda.n_rows(), c.n_usda);
        assert_eq!(s.award_agg.n_cols(), 13);
        assert_eq!(s.employees.n_cols(), 13);
        assert_eq!(s.object_codes.n_cols(), 3);
        assert_eq!(s.org_units.n_cols(), 5);
        assert_eq!(s.sub_awards.n_cols(), 23);
        assert_eq!(s.vendors.n_cols(), 21);
        assert_eq!(s.usda.n_cols(), 78);
    }

    #[test]
    fn award_numbers_are_keys() {
        let s = small();
        s.award_agg.check_key("UniqueAwardNumber").unwrap();
        s.usda.check_key("AccessionNumber").unwrap();
        s.award_agg.union(&s.extra_award_agg).unwrap().check_key("UniqueAwardNumber").unwrap();
    }

    #[test]
    fn employees_reference_awards() {
        let s = small();
        s.employees
            .check_foreign_key("UniqueAwardNumber", &s.award_agg, "UniqueAwardNumber")
            .unwrap();
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Scenario::generate(ScenarioConfig::small().with_seed(5)).unwrap();
        let b = Scenario::generate(ScenarioConfig::small().with_seed(5)).unwrap();
        assert_eq!(a.usda.rows(), b.usda.rows());
        assert_eq!(a.award_agg.rows(), b.award_agg.rows());
        assert_eq!(a.truth, b.truth);
        let c = Scenario::generate(ScenarioConfig::small().with_seed(6)).unwrap();
        assert_ne!(a.usda.rows(), c.usda.rows());
    }

    #[test]
    fn truth_pairs_reference_real_rows() {
        let s = small();
        let all = s.award_agg.union(&s.extra_award_agg).unwrap();
        let awards: std::collections::HashSet<String> = all
            .iter()
            .filter_map(|r| r.str("UniqueAwardNumber").map(str::to_string))
            .collect();
        let accessions: std::collections::HashSet<String> = s
            .usda
            .iter()
            .map(|r| r.get("AccessionNumber").unwrap().render())
            .collect();
        assert!(!s.truth.is_empty());
        for (award, acc) in s.truth.iter() {
            assert!(awards.contains(award), "unknown award {award}");
            assert!(accessions.contains(acc), "unknown accession {acc}");
        }
    }

    #[test]
    fn both_identifier_formats_present() {
        let s = small();
        let nums: Vec<String> = s
            .award_agg
            .iter()
            .filter_map(|r| r.str("UniqueAwardNumber").map(str::to_string))
            .collect();
        assert!(nums.iter().any(|n| n.contains("WIS")), "no state awards");
        assert!(
            nums.iter().any(|n| n.split(' ').nth(1).is_some_and(|s| s.contains('-'))),
            "no federal awards"
        );
    }

    #[test]
    fn some_usda_rows_missing_award_number() {
        let s = small();
        let missing = s
            .usda
            .iter()
            .filter(|r| r.get("AwardNumber").unwrap().is_null())
            .count();
        assert!(missing > 0, "M2 cases require missing award numbers");
        assert!(missing < s.usda.n_rows(), "some award numbers must be present");
    }

    #[test]
    fn umetrics_titles_uppercase_usda_titlecase() {
        let s = small();
        let u_title = s.award_agg.get(0, "AwardTitle").unwrap().render();
        assert_eq!(u_title, u_title.to_uppercase());
        let any_mixed = s.usda.iter().any(|r| {
            let t = r.get("ProjectTitle").unwrap().render();
            t != t.to_uppercase() && !t.is_empty()
        });
        assert!(any_mixed, "USDA titles should be mixed-case");
    }

    #[test]
    fn one_to_many_matches_exist() {
        let s = Scenario::generate(ScenarioConfig::small().with_seed(3)).unwrap();
        let has_multi = s
            .truth
            .iter()
            .any(|(award, _)| s.truth.accessions_for(award).len() > 1);
        assert!(has_multi, "expected some one-to-many award→accession matches");
    }

    #[test]
    fn extra_awards_marked_and_sized() {
        let s = small();
        let n_extra_marked = s
            .extra_award_agg
            .iter()
            .filter(|r| {
                s.truth
                    .is_extra_award(r.str("UniqueAwardNumber").unwrap_or(""))
            })
            .count();
        assert_eq!(n_extra_marked, s.config.n_extra_awards);
    }

    #[test]
    fn multistate_markers_appear_in_filler() {
        let s = Scenario::generate(ScenarioConfig::paper()).unwrap();
        let cloned = s
            .usda
            .iter()
            .filter(|r| {
                r.str("ProjectTitle")
                    .is_some_and(|t| t.contains("NC-") || t.contains("NRSP-"))
            })
            .count();
        assert!(cloned > 0, "D1 multistate clones missing");
    }

    #[test]
    fn paper_scale_generates() {
        let s = Scenario::generate(ScenarioConfig::paper()).unwrap();
        assert_eq!(s.award_agg.n_rows(), 1336);
        assert_eq!(s.extra_award_agg.n_rows(), 496);
        assert_eq!(s.usda.n_rows(), 1915);
        // healthy match density: several hundred true pairs
        assert!(s.truth.len() > 500, "only {} true matches", s.truth.len());
        assert!(s.truth.len() < 1915);
    }

    #[test]
    fn title_case_and_typo_helpers() {
        assert_eq!(title_case("SWAMP DODDER ecology"), "Swamp Dodder Ecology");
        let mut rng = StdRng::seed_from_u64(1);
        let t = inject_typo("hello world", &mut rng);
        assert_eq!(t.len(), "hello world".len());
        assert_ne!(t, "hello world");
    }
}
