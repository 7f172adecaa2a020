//! Cross-crate integration tests: the whole stack (datagen → storage →
//! R*-tree → RCJ) wired together through the public facade.

use ringjoin::{
    bulk_load, gnis_like, pair_keys, rcj_brute, rcj_join, uniform, GnisDataset, Item, MemDisk,
    Pager, RcjAlgorithm, RcjOptions,
};

fn paper_workload(n: usize) -> (ringjoin::SharedPager, ringjoin::RTree, ringjoin::RTree) {
    let pager = Pager::new(MemDisk::new(1024), usize::MAX / 2).into_shared();
    let tp = bulk_load(pager.clone(), gnis_like(GnisDataset::PopulatedPlaces, n));
    let tq = bulk_load(pager.clone(), gnis_like(GnisDataset::Schools, n));
    let buffer = (((tp.node_pages() + tq.node_pages()) as f64 * 0.01).ceil() as usize).max(1);
    {
        let mut pg = pager.borrow_mut();
        pg.set_buffer_capacity(buffer);
        pg.clear_buffer();
        pg.reset_stats();
    }
    (pager, tp, tq)
}

#[test]
fn algorithms_agree_on_realistic_workload() {
    let (_pager, tp, tq) = paper_workload(3_000);
    let inj = rcj_join(&tq, &tp, &RcjOptions::algorithm(RcjAlgorithm::Inj));
    let bij = rcj_join(&tq, &tp, &RcjOptions::algorithm(RcjAlgorithm::Bij));
    let obj = rcj_join(&tq, &tp, &RcjOptions::algorithm(RcjAlgorithm::Obj));
    assert!(!inj.pairs.is_empty());
    assert_eq!(pair_keys(&inj.pairs), pair_keys(&bij.pairs));
    assert_eq!(pair_keys(&inj.pairs), pair_keys(&obj.pairs));
}

#[test]
fn result_satisfies_definition_on_skewed_data() {
    // Re-check the ring constraint against the raw data, independent of
    // any index code.
    let p_items = gnis_like(GnisDataset::PopulatedPlaces, 800);
    let q_items = gnis_like(GnisDataset::Locales, 800);
    let pager = Pager::new(MemDisk::new(1024), 256).into_shared();
    let tp = bulk_load(pager.clone(), p_items.clone());
    let tq = bulk_load(pager.clone(), q_items.clone());
    let out = rcj_join(&tq, &tp, &RcjOptions::default());
    let expect = pair_keys(&rcj_brute(&p_items, &q_items));
    assert_eq!(pair_keys(&out.pairs), expect);
}

#[test]
fn file_backed_disk_matches_memory_disk() {
    let dir = std::env::temp_dir().join(format!("ringjoin-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trees.pages");

    let p_items = uniform(2_000, 11);
    let q_items = uniform(2_000, 12);

    let mem_keys = {
        let pager = Pager::new(MemDisk::new(1024), 64).into_shared();
        let tp = bulk_load(pager.clone(), p_items.clone());
        let tq = bulk_load(pager.clone(), q_items.clone());
        pair_keys(&rcj_join(&tq, &tp, &RcjOptions::default()).pairs)
    };

    let file_keys = {
        let mut pager = Pager::new(MemDisk::new(1024), 64);
        pager.spill_to(&path).unwrap();
        let pager = pager.into_shared();
        let tp = bulk_load(pager.clone(), p_items);
        let tq = bulk_load(pager.clone(), q_items);
        pair_keys(&rcj_join(&tq, &tp, &RcjOptions::default()).pairs)
    };

    assert_eq!(mem_keys, file_keys);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn datasets_roundtrip_through_persistence_into_join() {
    let dir = std::env::temp_dir().join(format!("ringjoin-e2e2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let p_items = uniform(1_500, 21);
    let q_items = uniform(1_500, 22);
    ringjoin::datagen::io::save_bin(dir.join("p.bin"), &p_items).unwrap();
    ringjoin::datagen::io::save_csv(dir.join("q.csv"), &q_items).unwrap();
    let p_back = ringjoin::datagen::io::load_bin(dir.join("p.bin")).unwrap();
    let q_back = ringjoin::datagen::io::load_csv(dir.join("q.csv")).unwrap();

    let direct = {
        let pager = Pager::new(MemDisk::new(1024), 128).into_shared();
        let tp = bulk_load(pager.clone(), p_items);
        let tq = bulk_load(pager.clone(), q_items);
        pair_keys(&rcj_join(&tq, &tp, &RcjOptions::default()).pairs)
    };
    let reloaded = {
        let pager = Pager::new(MemDisk::new(1024), 128).into_shared();
        let tp = bulk_load(pager.clone(), p_back);
        let tq = bulk_load(pager.clone(), q_back);
        pair_keys(&rcj_join(&tq, &tp, &RcjOptions::default()).pairs)
    };
    assert_eq!(direct, reloaded);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_and_bulk_trees_join_identically() {
    let p_items = uniform(1_200, 31);
    let q_items = uniform(1_200, 32);

    let bulk_keys = {
        let pager = Pager::new(MemDisk::new(1024), 128).into_shared();
        let tp = bulk_load(pager.clone(), p_items.clone());
        let tq = bulk_load(pager.clone(), q_items.clone());
        pair_keys(&rcj_join(&tq, &tp, &RcjOptions::default()).pairs)
    };
    let insert_keys = {
        let pager = Pager::new(MemDisk::new(1024), 128).into_shared();
        let mut tp = ringjoin::RTree::new(pager.clone());
        let mut tq = ringjoin::RTree::new(pager.clone());
        for &it in &p_items {
            tp.insert(it);
        }
        for &it in &q_items {
            tq.insert(it);
        }
        pair_keys(&rcj_join(&tq, &tp, &RcjOptions::default()).pairs)
    };
    assert_eq!(
        bulk_keys, insert_keys,
        "join result must not depend on build path"
    );
}

#[test]
fn join_after_deletions_stays_exact() {
    // Delete a third of P, then the join must equal brute force on the
    // survivors — exercising CondenseTree + join interplay.
    let p_items = uniform(900, 41);
    let q_items = uniform(900, 42);
    let pager = Pager::new(MemDisk::new(1024), 128).into_shared();
    let mut tp = ringjoin::RTree::new(pager.clone());
    for &it in &p_items {
        tp.insert(it);
    }
    let tq = bulk_load(pager.clone(), q_items.clone());

    let survivors: Vec<Item> = p_items
        .iter()
        .enumerate()
        .filter_map(|(i, &it)| {
            if i % 3 == 0 {
                assert!(tp.remove(it));
                None
            } else {
                Some(it)
            }
        })
        .collect();

    let out = rcj_join(&tq, &tp, &RcjOptions::default());
    let expect = pair_keys(&rcj_brute(&survivors, &q_items));
    assert_eq!(pair_keys(&out.pairs), expect);
}
