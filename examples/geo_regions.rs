//! Geographic regions: the paper's §2 motivation, executed.
//!
//! Builds the figure-style staircase region, runs the FO-definable
//! topological operators (interior / closure / boundary), and decides
//! region connectivity — the query Theorem 4.3 proves is *not* linear and
//! Theorem 4.4 places in Datalog¬ — with both back-ends.
//!
//! Run with: `cargo run --example geo_regions`

use dco::geo::connectivity::{component_count, is_connected, is_connected_via_datalog};
use dco::geo::instances::{broken_staircase, staircase};
use dco::geo::region::Region;
use dco::geo::topology::{boundary, closure, interior};
use dco::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. The §2 figure: a staircase of rectangles plus isolated points,
    //    all finitely represented with dense-order constraints.
    // ------------------------------------------------------------------
    let fig = Region::paper_figure();
    println!("the paper-figure region:");
    println!("  representation: {} disjuncts", fig.relation().len());
    for (x, y, expect) in [(1, 1, true), (5, 3, true), (1, 5, true), (1, 3, false)] {
        println!(
            "  contains ({x},{y})? {} (expected {expect})",
            fig.contains(x, y)
        );
    }

    // ------------------------------------------------------------------
    // 2. Topology, definable in FO over dense order (§3): interior,
    //    closure, boundary of a closed box — each answer is again a
    //    finitely representable region.
    // ------------------------------------------------------------------
    let b = Region::closed_box(0, 2, 0, 2);
    let int = interior(&b);
    let cl = closure(&Region::open_box(0, 2, 0, 2));
    let bd = boundary(&b);
    println!("\ntopology of [0,2]²:");
    println!(
        "  interior contains (1,1)? {}   (0,1)? {}",
        int.contains(1, 1),
        int.contains(0, 1)
    );
    println!("  closure of (0,2)² contains (0,0)? {}", cl.contains(0, 0));
    println!(
        "  boundary contains (0,1)? {}   (1,1)? {}",
        bd.contains(0, 1),
        bd.contains(1, 1)
    );

    // ------------------------------------------------------------------
    // 3. Region connectivity (Theorem 4.3/4.4): staircases.
    // ------------------------------------------------------------------
    let good = staircase(3);
    let bad = broken_staircase(3, 0);
    println!("\nregion connectivity:");
    println!(
        "  staircase(3): connected? {} (components: {})",
        is_connected(&good),
        component_count(&good)
    );
    println!(
        "  broken_staircase(3, 0): connected? {} (components: {})",
        is_connected(&bad),
        component_count(&bad)
    );
    println!(
        "  Datalog¬ back-end agrees? {} / {}",
        is_connected_via_datalog(&good) == is_connected(&good),
        is_connected_via_datalog(&bad) == is_connected(&bad),
    );

    // ------------------------------------------------------------------
    // 4. A rainfall-style thematic query (the paper's motivating kind):
    //    which x-coordinates of the figure receive the isolated stations?
    // ------------------------------------------------------------------
    let db = Database::new(Schema::new().with("region", 2)).with("region", fig.relation().clone());
    let f = parse_formula("exists y . (region(x, y) & y > 4)").unwrap();
    let q: Evaluation = evaluate_fo(&db, &f, &FoOptions::default()).unwrap().value;
    println!(
        "\nx-coordinates with region points above y = 4: {}",
        q.relation
    );

    println!("\ngeo_regions complete.");
}
