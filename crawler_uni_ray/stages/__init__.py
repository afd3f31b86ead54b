from .extract_stage import extract_stage, flatten_outlinks  # noqa: F401
from .fetch import fetch_broadcast, fetch_http, fetch_partitioned  # noqa: F401
from .frontier import add_host_column, scope_filter, seeds_dataset  # noqa: F401
from .robots import robots_filter, robots_table_to_dict  # noqa: F401
from .schedule import schedule_level_fused  # noqa: F401
from .seen_stage import seen_add, seen_filter  # noqa: F401
