"""DataOps layer: market-data providers (``providers``), their normalized
types (``types``), the response cache (``cache``) and lexical retrieval
(``retrieval``). Import from the submodule that defines a name."""
