//! The MSQL translator: §4.3's pipeline, phase by phase.
//!
//! ```text
//! MSQL query ──▶ expand (multiple-identifier substitution)
//!            ──▶ disambiguate (discard non-pertinent)
//!            ──▶ decompose (query-graph analysis, cross-db joins only)
//!            ──▶ plangen (DOL execution plan)
//! ```

pub mod decompose;
pub mod disambiguate;
pub mod expand;
pub mod plangen;

use crate::error::MdbsError;
use crate::scope::SessionScope;
use catalog::GlobalDataDictionary;
use msql_lang::{QueryBody, Select};

pub use decompose::{
    decompose, DbSubquery, Decomposition, JoinKey, JoinSide, Pushdown, PushdownPlan,
};
pub use disambiguate::disambiguate;
pub use expand::{expand, LocalQuery};
pub use plangen::{
    multitransaction_plan, retrieval_plan, update_plan, DbRoute, GeneratedPlan, MtxQueryPlan,
    PlanTask, MTX_FAILED,
};

/// The two execution shapes a query body can translate to.
#[derive(Debug, Clone, PartialEq)]
pub enum Translated {
    /// A *multiple query*: one elementary query per pertinent database; the
    /// result of a retrieval is a multitable.
    PerDb(Vec<LocalQuery>),
    /// A single global query joining tables of several databases; partial
    /// results are collected at a coordinator.
    CrossDb(Box<Decomposition>),
}

/// Translates a query body under a scope: chooses expansion (multiple query)
/// or decomposition (cross-database join) and runs the appropriate phases.
pub fn translate_body(
    body: &QueryBody,
    scope: &SessionScope,
    gdd: &GlobalDataDictionary,
) -> Result<Translated, MdbsError> {
    translate_body_traced(body, scope, gdd, &obs::Span::disabled())
}

/// [`translate_body`] with one child span per §4.3 phase (expand,
/// disambiguate, decompose) hung under `span`.
pub fn translate_body_traced(
    body: &QueryBody,
    scope: &SessionScope,
    gdd: &GlobalDataDictionary,
    span: &obs::Span,
) -> Result<Translated, MdbsError> {
    if let QueryBody::Select(sel) = body {
        if is_cross_db_join(sel, scope, gdd) {
            let phase = span.child("decompose");
            let dec = decompose(sel, scope, gdd)?;
            phase.note("subqueries", dec.subqueries.len());
            phase.note("join_keys", dec.join_keys.len());
            return Ok(Translated::CrossDb(Box::new(dec)));
        }
    }
    let candidates = {
        let phase = span.child("expand");
        let candidates = expand(body, scope, gdd)?;
        phase.note("candidates", candidates.len());
        candidates
    };
    let phase = span.child("disambiguate");
    let pertinent = disambiguate(candidates)?;
    phase.note("pertinent", pertinent.len());
    Ok(Translated::PerDb(pertinent))
}

/// A SELECT is a cross-database join when its FROM clause contains two or
/// more concrete tables owned by distinct scope databases (by explicit
/// qualifier or unique GDD ownership). Semantic variables and wildcards keep
/// the query in the replication (multiple-query) regime.
fn is_cross_db_join(sel: &Select, scope: &SessionScope, gdd: &GlobalDataDictionary) -> bool {
    if sel.from.len() < 2 {
        return false;
    }
    let mut owners: Vec<String> = Vec::new();
    for tref in &sel.from {
        if tref.table.is_multiple() || scope.is_table_variable(tref.table.as_str()) {
            return false;
        }
        let owner = match &tref.database {
            Some(q) => match scope.resolve(q.as_str()) {
                Some(d) => d.database.clone(),
                None => return false, // let expansion raise the scope error
            },
            None => match scope.owners(gdd, tref.table.as_str()).as_slice() {
                [only] => only.database.clone(),
                // Owned by several databases: this is the replication case
                // (same table everywhere).
                _ => return false,
            },
        };
        if !owners.contains(&owner) {
            owners.push(owner);
        }
    }
    owners.len() >= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::{GddColumn, GddTable};
    use msql_lang::{parse_statement, Statement, TypeName};

    fn gdd() -> GlobalDataDictionary {
        let mut g = GlobalDataDictionary::new();
        g.register_database("avis", "s1").unwrap();
        g.put_table(
            "avis",
            GddTable::new(
                "cars",
                vec![
                    GddColumn::new("code", TypeName::Int),
                    GddColumn::new("rate", TypeName::Float),
                ],
            ),
        )
        .unwrap();
        g.register_database("continental", "s2").unwrap();
        g.put_table(
            "continental",
            GddTable::new(
                "flights",
                vec![
                    GddColumn::new("flnu", TypeName::Int),
                    GddColumn::new("rate", TypeName::Float),
                ],
            ),
        )
        .unwrap();
        g
    }

    fn scope() -> SessionScope {
        let mut s = SessionScope::new();
        let Statement::Use(u) = parse_statement("USE avis continental").unwrap() else { panic!() };
        s.apply_use(&u).unwrap();
        s
    }

    fn body(sql: &str) -> QueryBody {
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
        q.body
    }

    #[test]
    fn single_table_select_goes_per_db() {
        let t = translate_body(&body("SELECT code FROM cars"), &scope(), &gdd()).unwrap();
        assert!(matches!(t, Translated::PerDb(ref v) if v.len() == 1));
    }

    #[test]
    fn qualified_cross_db_join_goes_to_decomposition() {
        let t = translate_body(
            &body("SELECT c.code FROM avis.cars c, continental.flights f WHERE c.rate = f.rate"),
            &scope(),
            &gdd(),
        )
        .unwrap();
        assert!(matches!(t, Translated::CrossDb(_)));
    }

    #[test]
    fn unqualified_unique_ownership_also_detected() {
        let t = translate_body(
            &body("SELECT code FROM cars, flights WHERE cars.rate = flights.rate"),
            &scope(),
            &gdd(),
        )
        .unwrap();
        assert!(matches!(t, Translated::CrossDb(_)));
    }

    #[test]
    fn updates_never_decompose() {
        let t = translate_body(&body("UPDATE cars SET rate = 1"), &scope(), &gdd()).unwrap();
        assert!(matches!(t, Translated::PerDb(_)));
    }

    #[test]
    fn same_db_join_goes_per_db() {
        let t = translate_body(
            &body("SELECT a.code FROM avis.cars a, avis.cars b WHERE a.code = b.code"),
            &scope(),
            &gdd(),
        )
        .unwrap();
        assert!(matches!(t, Translated::PerDb(_)));
    }
}
