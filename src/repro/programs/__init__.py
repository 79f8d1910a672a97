"""Workload library: the paper's example programs (Figures 1 and 2),
DRF and racy kernels, and seeded random program generators."""

from .._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "figure1": "figure1a_program figure1b_program",
    "kernels": "cas_counter_program cas_slot_allocator_program "
               "fanin_barrier_program independent_work_program "
               "lock_shadow_program locked_counter_program "
               "producer_consumer_program racy_counter_program "
               "region_then_lock_program single_race_program",
    "litmus": "both_entered iriw_forbidden_outcome iriw_program "
              "run_iriw_witness count_sb_violations "
              "locked_mutual_exclusion_program peterson_program "
              "run_peterson_witness run_store_buffering_witness "
              "store_buffering_program",
    "queue": "bounded_queue_program expected_checksum_total",
    "random_programs": "random_drf_program random_flagsync_program "
                       "random_program_suite random_racy_program",
    "workqueue": "WorkQueueParams buggy_workqueue_program "
                 "figure2_numa_setup figure2_weak_setup "
                 "fixed_workqueue_program run_figure2",
})
