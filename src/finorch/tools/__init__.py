"""Tool usage: typed call parsing (``calls``) and the sandboxed expression
language (``dsl``). Import from the submodule that defines a name."""
