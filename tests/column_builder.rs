//! Parallel column construction must be invisible: `ColumnBuilder` with 1
//! vs N shards produces byte-identical `Column`s (distinct order, row map,
//! leaf signatures, leaf-id assignment) on the datagen duplicate-heavy
//! workload — and both match the sequential `Column::from_rows`.

use clx::{Column, ColumnBuilder};
use clx_datagen::duplicate_heavy_case;

fn assert_byte_identical(a: &Column, b: &Column) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.distinct_count(), b.distinct_count());
    assert_eq!(a.leaf_count(), b.leaf_count());
    assert_eq!(a.interned_bytes(), b.interned_bytes());
    assert_eq!(a.row_map().as_ref(), b.row_map().as_ref());
    for (va, vb) in a.distinct_values().zip(b.distinct_values()) {
        assert_eq!(va.text(), vb.text(), "distinct order must match");
        assert_eq!(va.leaf(), vb.leaf());
        assert_eq!(va.leaf_id(), vb.leaf_id());
        assert_eq!(
            va.token_slices(),
            vb.token_slices(),
            "cached token slices must match on {}",
            va.text()
        );
        assert_eq!(va.rows().collect::<Vec<_>>(), vb.rows().collect::<Vec<_>>());
    }
}

#[test]
fn sharded_construction_is_byte_identical_on_duplicate_heavy_data() {
    // ~500 distinct values over 50k rows: every shard sees almost every
    // distinct value, so the merge's first-occurrence ordering is exercised
    // hard.
    let case = duplicate_heavy_case(50_000, 500, 7);
    let sequential = Column::from_rows(case.data.clone());
    assert_eq!(sequential.distinct_count(), 500);
    assert!(sequential.leaf_count() < sequential.distinct_count());

    for shards in [1, 2, 3, 4, 8] {
        let sharded = ColumnBuilder::new().shards(shards).build(case.data.clone());
        assert_byte_identical(&sequential, &sharded);
    }
}

#[test]
fn auto_sharding_matches_sequential() {
    let case = duplicate_heavy_case(20_000, 300, 3);
    let auto = ColumnBuilder::new().build(case.data.clone());
    assert_byte_identical(&Column::from_rows(case.data), &auto);
}

#[test]
fn shard_boundaries_do_not_split_first_occurrence_order() {
    // A value whose first occurrence is the last row of a shard and which
    // reappears as the first row of the next shard: global order must be
    // decided by the earlier row.
    let rows: Vec<String> = vec![
        "z-9".into(), // shard 1 (of 2, block size 2)
        "a-1".into(),
        "a-1".into(), // shard 2 starts here
        "b-2".into(),
    ];
    let sharded = ColumnBuilder::new().shards(2).build(rows.clone());
    let sequential = Column::from_rows(rows);
    assert_byte_identical(&sequential, &sharded);
    let order: Vec<&str> = sharded.distinct_values().map(|v| v.text()).collect();
    assert_eq!(order, vec!["z-9", "a-1", "b-2"]);
}
