//! The tourist-recommendation application: browse RCJ pairs in ascending
//! ring-diameter order.
//!
//! ```text
//! cargo run --release --example tourist_recommendation
//! ```
//!
//! A tourist wants a cinema *and* a restaurant that are convenient to
//! visit together. Sorting the RCJ result by ring diameter puts the most
//! compact cinema+restaurant combos first; the circle center is where to
//! stand (e.g., which metro exit to take).

use ringjoin::{
    bulk_load, gnis_like, rcj_join, rcj_stream_by_diameter, sort_by_diameter, GnisDataset, MemDisk,
    Pager, RcjOptions, RcjPair,
};

fn main() {
    let cinemas = gnis_like(GnisDataset::Locales, 5_000);
    let restaurants = gnis_like(GnisDataset::PopulatedPlaces, 15_000);

    let pager = Pager::new(MemDisk::new(1024), 512).into_shared();
    let tp = bulk_load(pager.clone(), cinemas);
    let tq = bulk_load(pager.clone(), restaurants);

    let mut out = rcj_join(&tq, &tp, &RcjOptions::default());
    // The paper: "the RCJ result set can be sorted in ascending order of
    // the ring diameter so as to facilitate the tourist".
    sort_by_diameter(&mut out.pairs);

    println!("top-10 most compact cinema+restaurant pairs:");
    println!(
        "{:<4} {:>10} {:>24} {:>8} {:>8}",
        "#", "diameter", "meet at", "cinema", "rest."
    );
    for (i, pair) in out.pairs.iter().take(10).enumerate() {
        println!(
            "{:<4} {:>10.2} {:>24} {:>8} {:>8}",
            i + 1,
            pair.diameter(),
            format!("{}", pair.center()),
            format!("c{}", pair.p.id),
            format!("r{}", pair.q.id),
        );
    }

    // The ordering is genuinely ascending.
    for w in out.pairs.windows(2) {
        assert!(w[0].diameter() <= w[1].diameter());
    }

    // A browsing UI only needs the first page: the diameter-ordered
    // stream yields the same ten pairs without computing the whole join.
    let top10: Vec<RcjPair> = rcj_stream_by_diameter(&tq, &tp, &RcjOptions::default())
        .take(10)
        .collect();
    assert_eq!(top10, out.pairs[..10]);

    // Filtering on the fly (the paper's browsing scenario): only pairs
    // whose center is near the tourist's hotel.
    let hotel = ringjoin::pt(5_000.0, 5_000.0);
    let nearby: Vec<_> = out
        .pairs
        .iter()
        .filter(|p| p.center().dist(hotel) < 1_000.0)
        .take(5)
        .collect();
    println!("\nwithin 1 km of the hotel at {hotel}:");
    for pair in nearby {
        println!(
            "  meet at {} (diameter {:.1}): cinema c{}, restaurant r{}",
            pair.center(),
            pair.diameter(),
            pair.p.id,
            pair.q.id
        );
    }
}
